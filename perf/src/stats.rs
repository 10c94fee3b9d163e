//! Order statistics for latency samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted, non-empty
/// sample, by linear interpolation between closest ranks. Interpolating
/// keeps the figure from jumping a whole sample when the count changes
/// by one between runs.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
}

/// Median of a sample that need not be sorted; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    Some(quantile_sorted(&sorted, 0.5))
}

/// Samples beyond the rank of a percentile given in per-mille (950 =
/// p95): a percentile is only reported as supported when at least ten
/// samples lie beyond it. Integer arithmetic, so the thresholds (200
/// samples for p95, 1000 for p99) are exact.
pub fn samples_beyond(count: usize, per_mille: usize) -> usize {
    count * (1000 - per_mille) / 1000
}

pub const TAIL_SUPPORT: usize = 10;

pub fn supported(count: usize, per_mille: usize) -> bool {
    samples_beyond(count, per_mille) >= TAIL_SUPPORT
}

/// The highest of the usual percentiles (per-mille) that `count` samples
/// support; `None` below 20 samples, where not even the median does.
pub fn highest_supported_percentile(count: usize) -> Option<usize> {
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|pm| supported(count, *pm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples, p99 needs 1000, p99.9 needs 10 000.
        assert_eq!(samples_beyond(199, 950), 9);
        assert_eq!(samples_beyond(200, 950), 10);
        assert!(!supported(199, 950) && supported(200, 950));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(500));
        assert_eq!(highest_supported_percentile(100), Some(900));
        assert_eq!(highest_supported_percentile(199), Some(900));
        assert_eq!(highest_supported_percentile(200), Some(950));
        assert_eq!(highest_supported_percentile(999), Some(950));
        assert_eq!(highest_supported_percentile(1000), Some(990));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
    }
}
