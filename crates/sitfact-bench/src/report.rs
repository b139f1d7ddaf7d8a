//! Plain-text emission of experiment results.
//!
//! Every figure panel prints (a) a human-readable aligned table and (b) CSV
//! rows prefixed with `csv,` so results can be extracted with `grep ^csv`.

use crate::harness::{SeriesPoint, StreamOutcome};

/// A named series of `(x, y)` points — one line of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (algorithm name).
    pub label: String,
    /// The plotted points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Builds the series of one [`SeriesPoint`] field of a [`StreamOutcome`]
    /// (x = tuple id, y = `field` of the point).
    pub fn from_outcome(outcome: &StreamOutcome, field: impl Fn(&SeriesPoint) -> f64) -> Self {
        Series {
            label: outcome.algorithm.clone(),
            points: outcome
                .points
                .iter()
                .map(|p| (p.tuple_id as f64, field(p)))
                .collect(),
        }
    }
}

/// Prints a figure as an aligned table: one row per x value, one column per
/// series.
pub fn print_table(title: &str, x_label: &str, y_label: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    println!("(y = {y_label})");
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.dedup();
    print!("{x_label:>12}");
    for s in series {
        print!(" {:>16}", s.label);
    }
    println!();
    for &x in &xs {
        print!("{x:>12.0}");
        for s in series {
            match s
                .points
                .iter()
                .find(|(px, _)| (px - x).abs() < f64::EPSILON)
            {
                Some((_, y)) => print!(" {y:>16.2}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Prints the same data as CSV rows (`csv,<figure>,<series>,<x>,<y>`).
pub fn print_series_csv(figure: &str, series: &[Series]) {
    for s in series {
        for (x, y) in &s.points {
            println!("csv,{figure},{},{x},{y}", s.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_storage::{StoreStats, WorkStats};

    #[test]
    fn series_from_outcome_maps_points() {
        let outcome = StreamOutcome {
            algorithm: "TopDown".into(),
            points: vec![
                SeriesPoint {
                    tuple_id: 100,
                    micros_per_tuple: 12.5,
                    work: WorkStats::default(),
                    store: StoreStats::default(),
                },
                SeriesPoint {
                    tuple_id: 200,
                    micros_per_tuple: 14.0,
                    work: WorkStats::default(),
                    store: StoreStats::default(),
                },
            ],
            total_seconds: 1.0,
        };
        let series = Series::from_outcome(&outcome, |p| p.micros_per_tuple);
        assert_eq!(series.label, "TopDown");
        assert_eq!(series.points, vec![(100.0, 12.5), (200.0, 14.0)]);
        let ids = Series::from_outcome(&outcome, |p| p.tuple_id as f64 / 100.0);
        assert_eq!(ids.points, vec![(100.0, 1.0), (200.0, 2.0)]);
    }

    #[test]
    fn printing_does_not_panic_on_ragged_series() {
        let series = vec![
            Series::new("A", vec![(1.0, 2.0), (2.0, 3.0)]),
            Series::new("B", vec![(2.0, 4.0)]),
        ];
        print_table("test", "x", "y", &series);
        print_series_csv("test", &series);
    }
}
