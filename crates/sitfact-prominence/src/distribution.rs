//! Aggregate statistics over prominent facts: the macro-level views of the
//! paper's case study (Figs. 14 and 15).

use crate::fact::ArrivalReport;

/// Accumulates, over a processed stream, the number of prominent facts broken
/// down the way the paper plots them:
///
/// * per window of `window` arriving tuples (Fig. 14),
/// * by the number of bound dimension attributes of the constraint (Fig. 15a),
/// * by the dimensionality of the measure subspace (Fig. 15b).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionStats {
    /// Window size in tuples (the paper uses 1,000).
    pub window: usize,
    /// Number of prominent facts in each consecutive window.
    pub per_window: Vec<u64>,
    /// `by_bound[k]`: prominent facts whose constraint binds `k` attributes.
    pub by_bound: Vec<u64>,
    /// `by_measure_dims[k]`: prominent facts whose subspace has `k` measures
    /// (index 0 is unused).
    pub by_measure_dims: Vec<u64>,
    /// Total number of tuples observed.
    pub tuples_seen: u64,
    /// Total number of prominent facts observed.
    pub total_prominent: u64,
}

impl DistributionStats {
    /// Creates an empty accumulator for schemas with at most `max_bound` bound
    /// attributes and `max_measures` measure attributes, counting per-window
    /// totals over windows of `window` tuples.
    pub fn new(window: usize, max_bound: usize, max_measures: usize) -> Self {
        DistributionStats {
            window: window.max(1),
            per_window: Vec::new(),
            by_bound: vec![0; max_bound + 1],
            by_measure_dims: vec![0; max_measures + 1],
            tuples_seen: 0,
            total_prominent: 0,
        }
    }

    /// Folds one arrival report into the distribution.
    pub fn record(&mut self, report: &ArrivalReport) {
        let window_index = (self.tuples_seen as usize) / self.window;
        if self.per_window.len() <= window_index {
            self.per_window.resize(window_index + 1, 0);
        }
        self.tuples_seen += 1;
        for fact in report.prominent() {
            self.per_window[window_index] += 1;
            self.total_prominent += 1;
            let bound = fact.pair.constraint.bound_count();
            if bound < self.by_bound.len() {
                self.by_bound[bound] += 1;
            }
            let dims = fact.pair.subspace.len();
            if dims < self.by_measure_dims.len() {
                self.by_measure_dims[dims] += 1;
            }
        }
    }

    /// Average number of prominent facts per window (the level of Fig. 14).
    pub fn mean_per_window(&self) -> f64 {
        if self.per_window.is_empty() {
            0.0
        } else {
            self.total_prominent as f64 / self.per_window.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::RankedFact;
    use sitfact_core::{Constraint, SkylinePair, SubspaceMask, UNBOUND};

    fn report(prominent: Vec<RankedFact>) -> ArrivalReport {
        let count = prominent.len();
        ArrivalReport {
            tuple_id: 0,
            facts: prominent,
            prominent_count: count,
        }
    }

    fn fact(bound_values: Vec<u32>, subspace: SubspaceMask) -> RankedFact {
        RankedFact {
            pair: SkylinePair::new(Constraint::from_values(bound_values), subspace),
            context_size: 1000,
            skyline_size: 1,
        }
    }

    #[test]
    fn accumulates_by_window_bound_and_dims() {
        let mut stats = DistributionStats::new(2, 3, 3);
        // Tuple 1: one prominent fact with 1 bound attr and 2 measures.
        stats.record(&report(vec![fact(
            vec![1, UNBOUND, UNBOUND],
            SubspaceMask(0b011),
        )]));
        // Tuple 2: two prominent facts.
        stats.record(&report(vec![
            fact(vec![1, 2, UNBOUND], SubspaceMask(0b001)),
            fact(vec![UNBOUND, UNBOUND, UNBOUND], SubspaceMask(0b111)),
        ]));
        // Tuple 3 (new window): none.
        stats.record(&report(vec![]));

        assert_eq!(stats.tuples_seen, 3);
        assert_eq!(stats.total_prominent, 3);
        assert_eq!(stats.per_window, vec![3, 0]);
        assert_eq!(stats.by_bound, vec![1, 1, 1, 0]);
        assert_eq!(stats.by_measure_dims, vec![0, 1, 1, 1]);
        assert!((stats.mean_per_window() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_distribution() {
        let stats = DistributionStats::new(1000, 5, 7);
        assert_eq!(stats.mean_per_window(), 0.0);
        assert_eq!(stats.total_prominent, 0);
        assert_eq!(stats.by_bound.len(), 6);
        assert_eq!(stats.by_measure_dims.len(), 8);
    }

    #[test]
    fn window_of_zero_is_clamped() {
        let stats = DistributionStats::new(0, 1, 1);
        assert_eq!(stats.window, 1);
    }
}
