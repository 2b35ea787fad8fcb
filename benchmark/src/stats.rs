//! Order statistics the benchmark reports: medians with their min/max/n, and
//! nearest-rank percentiles with the "ten beyond" support rule.

/// Median, extremes and count of one metric's repeated measurements — the
/// noise floor printed next to every median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            median: median_of_sorted(&sorted),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    median_of_sorted(&sorted(values))
}

/// `values` in ascending order.
///
/// # Panics
///
/// Panics if `values` holds a NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    sorted
}

/// The faster half of repeated timings (lower is faster), ascending: the
/// `ceil(n / 2)` smallest values.
///
/// Interference from the host only ever slows a repetition, so the faster
/// half is the less disturbed half; the benchmark reports the median of
/// that half and prints the min/max/n of all repetitions beside it.
pub fn faster_half(times: &[f64]) -> Vec<f64> {
    let mut kept = sorted(times);
    kept.truncate(times.len().div_ceil(2));
    kept
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no measurements");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples: the smallest
/// rank with at least `pct` percent of the samples at or below it.
fn nearest_rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (no interpolation: the
/// result is always one of the measurements).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no measurements");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond percentile `pct`'s nearest rank among `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, pct)
}

/// Whether `n` samples support reporting percentile `pct`: a tail percentile
/// is only stated with at least ten samples beyond it.
pub fn supports_percentile(n: usize, pct: f64) -> bool {
    samples_beyond(n, pct) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_a_measurement() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
    }

    #[test]
    fn ten_beyond_rule_picks_p90_at_the_benchmarks_counts() {
        // 120 latencies: p90 leaves 12 beyond, p99 only 1.
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert!(supports_percentile(120, 90.0));
        assert!(!supports_percentile(120, 99.0));
        // The boundary: exactly ten beyond is enough, nine is not.
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(1000, 99.0));
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn faster_half_keeps_the_smaller_ceil_half() {
        assert_eq!(faster_half(&[5.0, 1.0, 4.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(faster_half(&[2.0, 1.0]), vec![1.0]);
        assert_eq!(faster_half(&[9.0]), vec![9.0]);
        assert!(faster_half(&[]).is_empty());
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 9.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 3));
    }
}
