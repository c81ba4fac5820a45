//! Order statistics over latency samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 75.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p75 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Median (nearest rank) of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether percentile `p` of `n` samples lies within the sampling noise
/// of a mode boundary at cumulative share `boundary`: closer than three
/// standard errors of the quantile position, or 0.1 percentage points.
pub fn near_boundary(p: f64, boundary: f64, n: usize) -> bool {
    let q = p / 100.0;
    let se = (q * (1.0 - q) / n.max(1) as f64).sqrt();
    (q - boundary).abs() < (3.0 * se).max(0.001)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p90 of 100 leaves 10; p75 of 40 leaves 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn boundary_guard_scales_with_samples() {
        // The keep-alive reconnect mode: 1/128 of requests, p99 0.22
        // points below the boundary — safe with many samples only.
        let boundary = 1.0 - 1.0 / 128.0;
        assert!(!near_boundary(99.0, boundary, 40_000));
        assert!(near_boundary(99.0, boundary, 10_000));
        assert!(near_boundary(50.0, 0.5004, 1_000_000));
        assert!(!near_boundary(50.0, 0.80, 1_000));
    }
}
