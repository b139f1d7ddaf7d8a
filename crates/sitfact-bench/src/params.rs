//! The paper's experiment parameters (Section VI-A) at laptop-scale
//! defaults.

/// Parameters of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Number of dimension attributes `d` (Table V).
    pub d: usize,
    /// Number of measure attributes `m` (Table VI).
    pub m: usize,
    /// Maximum bound dimension attributes `d̂`.
    pub d_hat: usize,
    /// Maximum measure-subspace dimensionality `m̂`.
    pub m_hat: usize,
    /// Stream length `n`.
    pub n: usize,
    /// Number of measurement points along the stream.
    pub sample_points: usize,
    /// RNG seed for the synthetic dataset.
    pub seed: u64,
}

impl ExperimentParams {
    /// The paper's default configuration (`d = 5`, `m = 7`, `d̂ = 4`,
    /// `m̂ = m`) at a laptop-scale default stream length.
    pub fn paper_default(n: usize) -> Self {
        ExperimentParams {
            d: 5,
            m: 7,
            d_hat: 4,
            m_hat: 7,
            n,
            sample_points: 10,
            seed: 20_140_331,
        }
    }

    /// The case-study configuration of Section VII (`d̂ = 3`, `m̂ = 3`).
    pub fn case_study(n: usize) -> Self {
        ExperimentParams {
            d: 5,
            m: 7,
            d_hat: 3,
            m_hat: 3,
            n,
            sample_points: 10,
            seed: 20_140_331,
        }
    }

    /// Returns a copy with a different number of dimension attributes,
    /// clamping `d̂` as the paper does (`d̂ = 4`).
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self.d_hat = self.d_hat.min(d);
        self
    }

    /// Returns a copy with a different number of measure attributes and
    /// `m̂ = m` (the paper's setting).
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self.m_hat = m;
        self
    }

    /// Returns a copy with a different stream length.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
}

/// The `d` values swept in Figs. 7b/8b/12b.
pub const D_SWEEP: [usize; 4] = [4, 5, 6, 7];

/// The `m` values swept in Figs. 7c/8c/12c.
pub const M_SWEEP: [usize; 4] = [4, 5, 6, 7];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = ExperimentParams::paper_default(10_000);
        assert_eq!((p.d, p.m, p.d_hat, p.m_hat), (5, 7, 4, 7));
        let c = ExperimentParams::case_study(10_000);
        assert_eq!((c.d_hat, c.m_hat), (3, 3));
    }

    #[test]
    fn with_setters_adjust_caps() {
        let p = ExperimentParams::paper_default(1_000)
            .with_d(4)
            .with_m(5)
            .with_n(99);
        assert_eq!(p.d, 4);
        assert_eq!(p.d_hat, 4);
        assert_eq!(p.m, 5);
        assert_eq!(p.m_hat, 5);
        assert_eq!(p.n, 99);
    }
}
