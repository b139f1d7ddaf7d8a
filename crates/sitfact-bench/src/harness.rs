//! Streaming experiment drivers.

use crate::params::ExperimentParams;
use sitfact_algos::{AlgorithmKind, SBottomUp};
use sitfact_core::{DiscoveryConfig, Schema, Tuple};
use sitfact_datagen::nba::{NbaConfig, NbaGenerator};
use sitfact_datagen::weather::{WeatherConfig, WeatherGenerator};
use sitfact_datagen::{DataGenerator, Row};
use sitfact_prominence::{FactMonitor, MonitorConfig, RankedFact};
use sitfact_storage::{StoreStats, Table, WorkStats};
use std::path::Path;
use std::time::Instant;

/// Which synthetic dataset an experiment streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Synthetic NBA box scores (the paper's primary dataset).
    Nba,
    /// Synthetic UK weather forecasts (the paper's larger dataset).
    Weather,
}

/// Generates the schema and `n` rows of the requested dataset at the given
/// dimensionalities.
pub fn generate_rows(kind: DatasetKind, params: &ExperimentParams) -> (Schema, Vec<Row>) {
    match kind {
        DatasetKind::Nba => {
            let mut gen = NbaGenerator::new(NbaConfig {
                dimensions: params.d,
                measures: params.m,
                players: 600,
                teams: 29,
                seasons: 8,
                games_per_season: (params.n / 8).max(1),
                seed: params.seed,
            });
            (gen.schema().clone(), gen.take_rows(params.n))
        }
        DatasetKind::Weather => {
            let mut gen = WeatherGenerator::new(WeatherConfig {
                dimensions: params.d.min(7),
                measures: params.m,
                locations: 1_200,
                records_per_day: 1_200,
                seed: params.seed,
            });
            (gen.schema().clone(), gen.take_rows(params.n))
        }
    }
}

/// One measurement along the stream.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Position in the stream (1-based tuple count at the measurement).
    pub tuple_id: usize,
    /// Average per-tuple discovery time over the window ending here, in
    /// microseconds (for the stateless baselines: the time of the single
    /// probe discovery at this position).
    pub micros_per_tuple: f64,
    /// Cumulative work counters at this point.
    pub work: WorkStats,
    /// Storage counters at this point.
    pub store: StoreStats,
}

/// The full outcome of streaming one dataset through one algorithm.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Algorithm display name.
    pub algorithm: String,
    /// Measurements at the sampled positions.
    pub points: Vec<SeriesPoint>,
    /// Total wall-clock seconds spent inside `discover` calls.
    pub total_seconds: f64,
}

impl StreamOutcome {
    /// The per-tuple time at the last sample point (µs) — the figure-of-merit
    /// used by the `d` / `m` sweeps.
    pub fn final_micros_per_tuple(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.micros_per_tuple)
    }
}

/// Streams `rows` through one algorithm, sampling `sample_points` times.
///
/// Incremental algorithms (everything except `BruteForce` / `BaselineSeq`)
/// process every tuple; the stateless baselines skip non-sampled positions
/// (their per-tuple cost depends only on the table contents, which are
/// appended regardless), which is what makes it feasible to chart them at all
/// at realistic stream lengths.
pub fn run_stream(
    kind: AlgorithmKind,
    schema: &Schema,
    rows: &[Row],
    discovery: DiscoveryConfig,
    sample_points: usize,
    file_dir: Option<&Path>,
) -> StreamOutcome {
    let mut algo = kind
        .build(schema, discovery, file_dir)
        .expect("the algorithm builds (file-backed kinds need a store directory)");
    let mut table = Table::with_capacity(schema.clone(), rows.len());
    let sample_every = (rows.len() / sample_points.max(1)).max(1);
    let incremental = kind.is_incremental();

    let mut points = Vec::with_capacity(sample_points + 1);
    let mut window_seconds = 0.0f64;
    let mut window_count = 0usize;
    let mut total_seconds = 0.0f64;

    for (i, row) in rows.iter().enumerate() {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let ids = table
            .schema_mut()
            .intern_dims(&dims)
            .expect("row matches schema");
        let tuple = Tuple::new(ids, row.measures.clone());
        let is_sample = (i + 1) % sample_every == 0 || i + 1 == rows.len();

        if incremental || is_sample {
            let start = Instant::now();
            let _facts = algo.discover(&table, &tuple);
            let elapsed = start.elapsed().as_secs_f64();
            window_seconds += elapsed;
            window_count += 1;
            total_seconds += elapsed;
        }
        table.append(tuple).expect("tuple matches schema");

        if is_sample {
            let micros = if window_count > 0 {
                window_seconds / window_count as f64 * 1e6
            } else {
                0.0
            };
            points.push(SeriesPoint {
                tuple_id: i + 1,
                micros_per_tuple: micros,
                work: algo.work_stats(),
                store: algo.store_stats(),
            });
            window_seconds = 0.0;
            window_count = 0;
        }
    }

    StreamOutcome {
        algorithm: kind.name().to_string(),
        points,
        total_seconds,
    }
}

/// Runs the `d` sweep of Figs. 7b/8b/12b: for each number of dimension
/// attributes, streams a fresh dataset and reports the final per-tuple time.
pub fn sweep_dimensions(
    dataset: DatasetKind,
    kinds: &[AlgorithmKind],
    base: ExperimentParams,
    d_values: &[usize],
    file_dir: Option<&Path>,
) -> Vec<(String, Vec<(usize, f64)>)> {
    sweep(dataset, kinds, d_values, file_dir, "d", |d| base.with_d(d))
}

/// Runs the `m` sweep of Figs. 7c/8c/12c.
pub fn sweep_measures(
    dataset: DatasetKind,
    kinds: &[AlgorithmKind],
    base: ExperimentParams,
    m_values: &[usize],
    file_dir: Option<&Path>,
) -> Vec<(String, Vec<(usize, f64)>)> {
    sweep(dataset, kinds, m_values, file_dir, "m", |m| base.with_m(m))
}

/// Streams a fresh dataset per swept value through every kind. A file-backed
/// run keeps its store in `file_dir/<kind>-<tag><value>` and removes it when
/// the run ends: one file per skyline cell adds up to gigabytes in a sweep.
fn sweep(
    dataset: DatasetKind,
    kinds: &[AlgorithmKind],
    values: &[usize],
    file_dir: Option<&Path>,
    tag: &str,
    params_at: impl Fn(usize) -> ExperimentParams,
) -> Vec<(String, Vec<(usize, f64)>)> {
    let mut results: Vec<(String, Vec<(usize, f64)>)> = kinds
        .iter()
        .map(|k| (k.name().to_string(), Vec::new()))
        .collect();
    for &value in values {
        let params = params_at(value);
        let (schema, rows) = generate_rows(dataset, &params);
        let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
        for (idx, &kind) in kinds.iter().enumerate() {
            let dir = file_dir.map(|p| p.join(format!("{}-{tag}{value}", kind.name())));
            let outcome = run_stream(
                kind,
                &schema,
                &rows,
                discovery,
                params.sample_points,
                dir.as_deref(),
            );
            if let Some(dir) = &dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            results[idx]
                .1
                .push((value, outcome.final_micros_per_tuple()));
        }
    }
    results
}

/// Outcome of the prominence case study (Figs. 14–15 and Section VII).
#[derive(Debug, Clone, Default)]
pub struct ProminenceStudy {
    /// Threshold values studied.
    pub tau_values: Vec<f64>,
    /// Prominent facts per window of 1,000 tuples, for the first τ (Fig. 14).
    pub per_window: Vec<u64>,
    /// For each τ, prominent-fact counts by number of bound attributes
    /// (Fig. 15a).
    pub by_bound: Vec<Vec<u64>>,
    /// For each τ, prominent-fact counts by measure-subspace dimensionality
    /// (Fig. 15b).
    pub by_measure_dims: Vec<Vec<u64>>,
    /// A few narrated example facts (the Section VII bullet list).
    pub examples: Vec<String>,
}

/// Streams an NBA dataset through a [`FactMonitor`] once and accumulates the
/// prominent-fact distributions for several τ values simultaneously.
pub fn run_prominence_study(
    params: ExperimentParams,
    tau_values: &[f64],
    window: usize,
    max_examples: usize,
) -> ProminenceStudy {
    let (schema, rows) = generate_rows(DatasetKind::Nba, &params);
    let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
    let algo = SBottomUp::new(&schema, discovery);
    // τ = 1 inside the monitor: every arrival's maximal facts are surfaced and
    // re-thresholded here for each studied τ.
    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(1.0)
            .with_keep_top(64),
    );

    let n_windows = rows.len() / window.max(1) + 1;
    let mut per_window = vec![0u64; n_windows];
    let mut by_bound = vec![vec![0u64; params.d_hat + 1]; tau_values.len()];
    let mut by_measure_dims = vec![vec![0u64; params.m_hat + 1]; tau_values.len()];
    let mut examples = Vec::new();

    for (i, row) in rows.iter().enumerate() {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let report = monitor
            .ingest_raw(&dims, row.measures.clone())
            .expect("row matches schema");
        let Some(max) = report.max_prominence() else {
            continue;
        };
        let ties: Vec<&RankedFact> = report
            .facts
            .iter()
            .take_while(|f| (f.prominence() - max).abs() < f64::EPSILON)
            .collect();
        for (ti, &tau) in tau_values.iter().enumerate() {
            if max < tau {
                continue;
            }
            for fact in &ties {
                let bound = fact.pair.constraint.bound_count();
                if bound < by_bound[ti].len() {
                    by_bound[ti][bound] += 1;
                }
                let dims = fact.pair.subspace.len();
                if dims < by_measure_dims[ti].len() {
                    by_measure_dims[ti][dims] += 1;
                }
                if ti == 0 {
                    per_window[i / window.max(1)] += 1;
                    if examples.len() < max_examples {
                        let schema = monitor.table().schema();
                        let tuple = monitor.table().tuple(report.tuple_id);
                        let player = schema.resolve_dim(0, tuple.dim(0)).unwrap_or("?");
                        examples.push(format!(
                            "{player}: {}",
                            sitfact_prominence::narrate(schema, tuple, fact)
                        ));
                    }
                }
            }
        }
    }

    ProminenceStudy {
        tau_values: tau_values.to_vec(),
        per_window,
        by_bound,
        by_measure_dims,
        examples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            d: 4,
            m: 3,
            d_hat: 3,
            m_hat: 3,
            n: 200,
            sample_points: 4,
            seed: 9,
        }
    }

    #[test]
    fn generate_rows_matches_params() {
        let (schema, rows) = generate_rows(DatasetKind::Nba, &tiny_params());
        assert_eq!(schema.num_dimensions(), 4);
        assert_eq!(schema.num_measures(), 3);
        assert_eq!(rows.len(), 200);
        let (schema, rows) = generate_rows(DatasetKind::Weather, &tiny_params());
        assert_eq!(schema.num_dimensions(), 4);
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn run_stream_produces_sample_points_for_all_algorithm_classes() {
        let params = tiny_params();
        let (schema, rows) = generate_rows(DatasetKind::Nba, &params);
        let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
        for kind in [
            AlgorithmKind::BaselineSeq,
            AlgorithmKind::BaselineIdx,
            AlgorithmKind::BottomUp,
            AlgorithmKind::STopDown,
        ] {
            let outcome = run_stream(kind, &schema, &rows, discovery, params.sample_points, None);
            assert!(
                outcome.points.len() >= params.sample_points,
                "{} produced {} points",
                outcome.algorithm,
                outcome.points.len()
            );
            assert!(outcome.final_micros_per_tuple() > 0.0);
            assert!(outcome.total_seconds > 0.0);
            // Work counters are monotone along the stream.
            for pair in outcome.points.windows(2) {
                assert!(pair[1].work.comparisons >= pair[0].work.comparisons);
            }
        }
    }

    #[test]
    fn sweeps_cover_requested_values() {
        let params = tiny_params().with_n(120);
        let kinds = [AlgorithmKind::BottomUp, AlgorithmKind::STopDown];
        let by_d = sweep_dimensions(DatasetKind::Nba, &kinds, params, &[4, 5], None);
        assert_eq!(by_d.len(), 2);
        assert_eq!(by_d[0].1.len(), 2);
        let by_m = sweep_measures(DatasetKind::Nba, &kinds, params, &[3, 4], None);
        assert_eq!(
            by_m[1].1.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    /// Acceptance guard for the inverted context index: on an NBA-scale
    /// table, retrieving a selective context must examine far fewer rows than
    /// a full scan (the probe bound is the smallest posting list involved),
    /// while returning exactly the scan's results.
    #[test]
    fn context_retrieval_is_sublinear_on_nba_data() {
        use sitfact_core::{BoundMask, Constraint};
        let params = ExperimentParams {
            d: 5,
            m: 4,
            d_hat: 3,
            m_hat: 3,
            n: 5_000,
            sample_points: 1,
            seed: 21,
        };
        let (schema, rows) = generate_rows(DatasetKind::Nba, &params);
        let mut table = Table::with_capacity(schema, rows.len());
        for row in &rows {
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            let ids = table.schema_mut().intern_dims(&dims).unwrap();
            table.append(Tuple::new(ids, row.measures.clone())).unwrap();
        }
        for probe_id in [0u32, 1_000, 2_500, 4_999] {
            let probe = table.tuple(probe_id);
            // Bind the player attribute alone and player ∧ team.
            for mask in [
                BoundMask::from_indices([0]),
                BoundMask::from_indices([0, 3]),
            ] {
                let constraint = Constraint::from_tuple_mask(probe, mask);
                let indexed: Vec<u32> = table.context(&constraint).map(|(id, _)| id).collect();
                let scanned: Vec<u32> = table.context_scan(&constraint).map(|(id, _)| id).collect();
                assert_eq!(indexed, scanned);
                let bound = table.context_probe_bound(&constraint);
                assert!(
                    bound * 10 < table.len(),
                    "constraint {constraint:?} probes {bound} of {} rows — not sub-linear",
                    table.len()
                );
            }
        }
    }

    #[test]
    fn prominence_study_accumulates() {
        let params = ExperimentParams {
            d: 5,
            m: 4,
            d_hat: 3,
            m_hat: 3,
            n: 600,
            sample_points: 3,
            seed: 11,
        };
        let study = run_prominence_study(params, &[2.0, 20.0], 100, 5);
        assert_eq!(study.tau_values.len(), 2);
        assert_eq!(study.by_bound.len(), 2);
        assert_eq!(study.by_bound[0].len(), 4);
        // Lower thresholds admit at least as many prominent facts.
        let total_low: u64 = study.by_bound[0].iter().sum();
        let total_high: u64 = study.by_bound[1].iter().sum();
        assert!(total_low >= total_high);
        assert!(total_low > 0);
        assert!(!study.examples.is_empty());
        assert_eq!(
            study.per_window.iter().sum::<u64>(),
            study.by_bound[0].iter().sum::<u64>()
        );
    }
}
