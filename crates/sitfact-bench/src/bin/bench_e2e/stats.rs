//! Order statistics for latency samples.

/// A tail percentile is only reported where at least this many samples lie
/// beyond it; otherwise the rank is lowered until they do.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending sample: the smallest value with
/// at least `q * n` samples at or below it. An empty sample reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, q) - 1],
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile under the "at least [`MIN_BEYOND`] samples beyond it"
/// rule: with too few samples for that, the highest rank that still leaves
/// [`MIN_BEYOND`] samples above it is used instead. Returns the value and
/// the quantile it actually stands for.
pub fn tail_percentile(sorted: &[u64], q: f64) -> (u64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0, q);
    }
    let wanted = rank(n, q);
    let allowed = n.saturating_sub(MIN_BEYOND).max(1);
    if wanted <= allowed {
        (sorted[wanted - 1], q)
    } else {
        (sorted[allowed - 1], allowed as f64 / n as f64)
    }
}

/// Median of an unsorted sample of floats (mean of the middle two for an
/// even count). An empty sample reads 0.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The sample in ascending order, as the percentile functions expect it.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Nanoseconds as fractional microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.5), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Nearest rank never interpolates: p50 of four values is the second.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 20);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 2 000 samples: p99 is rank 1 980, 20 samples beyond it — kept.
        let large: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_percentile(&large, 0.99), (1980, 0.99));
        // 1 000 samples: rank 990 leaves exactly 10 beyond — still kept.
        let exact: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&exact, 0.99), (990, 0.99));
        // 500 samples: rank 495 leaves only 5 beyond, so the rank drops to
        // 490 and the result says it stands for p98.
        let small: Vec<u64> = (1..=500).collect();
        let (value, q) = tail_percentile(&small, 0.99);
        assert_eq!(value, 490);
        assert!((q - 0.98).abs() < 1e-12);
        // Fewer samples than the rule needs: the minimum, never a panic.
        assert_eq!(tail_percentile(&[3, 5, 9], 0.99).0, 3);
        assert_eq!(tail_percentile(&[], 0.99).0, 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
