//! Ranked situational facts and per-arrival reports.

use sitfact_core::{Schema, SkylinePair, TupleId};

/// A situational fact together with the quantities behind its prominence.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedFact {
    /// The constraint–measure pair.
    pub pair: SkylinePair,
    /// `|σ_C(R)|`: number of tuples in the context (including the new tuple).
    pub context_size: u64,
    /// `|λ_M(σ_C(R))|`: number of contextual skyline tuples.
    pub skyline_size: u64,
}

impl RankedFact {
    /// The canonical ranking order of a report's facts: descending
    /// prominence, ties broken by constraint values then subspace.
    ///
    /// This is a *total* order on distinct facts (no two facts share both
    /// constraint and subspace), so a ranked report is fully determined by
    /// its fact **set** — independent of the order the discovery algorithm
    /// emitted the pairs in. That determinism is what lets a sharded monitor
    /// (whose shards prune in a different order than an unsharded monitor)
    /// produce byte-identical reports, `keep_top` truncation included.
    pub fn ranking_cmp(a: &RankedFact, b: &RankedFact) -> std::cmp::Ordering {
        Self::ranked_cmp(a.prominence(), a, b.prominence(), b)
    }

    /// [`RankedFact::ranking_cmp`] of two facts paired with their
    /// prominences, so a sort computes each prominence once rather than
    /// twice per comparison.
    pub fn ranking_cmp_keyed(
        (prominence_a, a): &(f64, RankedFact),
        (prominence_b, b): &(f64, RankedFact),
    ) -> std::cmp::Ordering {
        Self::ranked_cmp(*prominence_a, a, *prominence_b, b)
    }

    fn ranked_cmp(
        prominence_a: f64,
        a: &RankedFact,
        prominence_b: f64,
        b: &RankedFact,
    ) -> std::cmp::Ordering {
        prominence_b
            .partial_cmp(&prominence_a)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.pair
                    .constraint
                    .values()
                    .cmp(b.pair.constraint.values())
                    .then(a.pair.subspace.cmp(&b.pair.subspace))
            })
    }

    /// The prominence value `|σ_C(R)| / |λ_M(σ_C(R))|` (≥ 1 whenever the
    /// context is non-empty; larger is rarer and therefore more newsworthy).
    pub fn prominence(&self) -> f64 {
        if self.skyline_size == 0 {
            // Cannot happen for facts pertinent to the new tuple (it is itself
            // a skyline tuple), but keep the ratio well defined.
            return 0.0;
        }
        self.context_size as f64 / self.skyline_size as f64
    }

    /// Human-readable rendering including the prominence value.
    pub fn display(&self, schema: &Schema) -> String {
        format!(
            "{} [prominence {:.1} = {}/{}]",
            self.pair.display(schema),
            self.prominence(),
            self.context_size,
            self.skyline_size
        )
    }
}

/// Everything discovered about one arriving tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalReport {
    /// Id assigned to the tuple in the append-only table.
    pub tuple_id: TupleId,
    /// Every fact of `S_t`, ranked by descending prominence.
    pub facts: Vec<RankedFact>,
    /// Number of facts whose prominence equals the maximum **and** clears the
    /// monitor's threshold `τ` — the paper's "prominent facts pertinent to t".
    /// They are the first `prominent_count` entries of `facts`.
    pub prominent_count: usize,
}

impl ArrivalReport {
    /// The prominent facts (highest prominence, above threshold).
    pub fn prominent(&self) -> &[RankedFact] {
        &self.facts[..self.prominent_count]
    }

    /// The top-k facts by prominence (fewer if the arrival produced fewer).
    pub fn top_k(&self, k: usize) -> &[RankedFact] {
        &self.facts[..k.min(self.facts.len())]
    }

    /// The highest prominence value among the facts, if any.
    pub fn max_prominence(&self) -> Option<f64> {
        self.facts.first().map(RankedFact::prominence)
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks that a report is in the canonical normalized form every monitor
/// emits: facts sorted by [`RankedFact::ranking_cmp`] and `prominent_count` marking exactly the prefix of facts tied
/// with the maximum prominence.
impl sitfact_core::Audit for ArrivalReport {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("ArrivalReport", invariant, detail))
        };
        for (pos, pair) in self.facts.windows(2).enumerate() {
            if RankedFact::ranking_cmp(&pair[0], &pair[1]) == std::cmp::Ordering::Greater {
                return fail(
                    "facts-normalized",
                    format!(
                        "tuple {}: facts {pos} and {} are out of canonical ranking order \
                         (prominence {} before {})",
                        self.tuple_id,
                        pos + 1,
                        pair[0].prominence(),
                        pair[1].prominence()
                    ),
                );
            }
        }
        if self.prominent_count > self.facts.len() {
            return fail(
                "prominent-count-bounded",
                format!(
                    "tuple {}: prominent_count = {} exceeds the {} retained facts",
                    self.tuple_id,
                    self.prominent_count,
                    self.facts.len()
                ),
            );
        }
        // `prominent_count = 0` can also mean "maximum below τ", which the
        // report does not record — only a positive count is checkable.
        if self.prominent_count > 0 {
            let max = self.facts[0].prominence();
            let tied = |f: &RankedFact| (f.prominence() - max).abs() < f64::EPSILON;
            if let Some(pos) = self.facts[..self.prominent_count]
                .iter()
                .position(|f| !tied(f))
            {
                return fail(
                    "prominent-prefix-tied",
                    format!(
                        "tuple {}: fact {pos} is marked prominent but its prominence {} is \
                         not tied with the maximum {max}",
                        self.tuple_id,
                        self.facts[pos].prominence()
                    ),
                );
            }
            if let Some(f) = self.facts.get(self.prominent_count) {
                if tied(f) {
                    return fail(
                        "prominent-prefix-tied",
                        format!(
                            "tuple {}: fact {} ties the maximum prominence {max} but is not \
                             counted prominent",
                            self.tuple_id, self.prominent_count
                        ),
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{Constraint, SubspaceMask};

    fn fact(context: u64, skyline: u64) -> RankedFact {
        RankedFact {
            pair: SkylinePair::new(Constraint::top(2), SubspaceMask(0b01)),
            context_size: context,
            skyline_size: skyline,
        }
    }

    #[test]
    fn prominence_is_the_cardinality_ratio() {
        // The paper's Section VII example: 5 tuples, 2 skyline tuples -> 5/2.
        assert_eq!(fact(5, 2).prominence(), 2.5);
        assert_eq!(fact(3, 2).prominence(), 1.5);
        assert_eq!(fact(0, 0).prominence(), 0.0);
    }

    #[test]
    fn ranking_orders_ties_canonically() {
        use sitfact_core::UNBOUND;
        let fact_with = |values: Vec<u32>, context: u64| RankedFact {
            pair: SkylinePair::new(Constraint::from_values(values), SubspaceMask(0b01)),
            context_size: context,
            skyline_size: 1,
        };
        let mut a = ArrivalReport {
            tuple_id: 0,
            facts: vec![
                fact_with(vec![2, UNBOUND], 4),
                fact_with(vec![1, UNBOUND], 4),
                fact_with(vec![0, 0], 9),
            ],
            prominent_count: 1,
        };
        let mut b = ArrivalReport {
            tuple_id: 0,
            facts: vec![
                fact_with(vec![0, 0], 9),
                fact_with(vec![1, UNBOUND], 4),
                fact_with(vec![2, UNBOUND], 4),
            ],
            prominent_count: 1,
        };
        let mut keyed: Vec<(f64, RankedFact)> = a
            .facts
            .iter()
            .map(|f| (f.prominence(), f.clone()))
            .collect();
        a.facts.sort_by(RankedFact::ranking_cmp);
        b.facts.sort_by(RankedFact::ranking_cmp);
        assert_eq!(a, b);
        // Sorting on precomputed prominences gives the same order.
        keyed.sort_unstable_by(RankedFact::ranking_cmp_keyed);
        let keyed: Vec<RankedFact> = keyed.into_iter().map(|(_, f)| f).collect();
        assert_eq!(keyed, a.facts);
        // Highest prominence still first; ties resolved by constraint values.
        assert_eq!(a.facts[0].context_size, 9);
        assert_eq!(a.facts[1].pair.constraint.values()[0], 1);
    }

    #[test]
    fn report_accessors() {
        let report = ArrivalReport {
            tuple_id: 7,
            facts: vec![fact(100, 1), fact(100, 1), fact(10, 2)],
            prominent_count: 2,
        };
        assert_eq!(report.prominent().len(), 2);
        assert_eq!(report.top_k(1).len(), 1);
        assert_eq!(report.top_k(99).len(), 3);
        assert_eq!(report.max_prominence(), Some(100.0));
        let empty = ArrivalReport {
            tuple_id: 0,
            facts: vec![],
            prominent_count: 0,
        };
        assert_eq!(empty.max_prominence(), None);
        assert!(empty.prominent().is_empty());
    }
}
