//! Order statistics used by every workload: medians, nearest-rank
//! percentiles and the tail rule.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9 / 100 * 10000` from rounding up past rank 9990.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100] of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(p, v.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its nearest rank,
/// or `None` when even the median has fewer than that beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= TAIL_MIN_BEYOND && n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
}

/// A latency summary: median, tail value, the tail's percentile and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, in the samples' unit.
    pub p50: f64,
    /// Value at [`tail_pct`](Self::tail_pct).
    pub tail: f64,
    /// The percentile the tail rule picked.
    pub tail_pct: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarize `values` by the tail rule; `None` when there are too few
/// samples for any percentile to have ten beyond it.
pub fn latency(values: &[f64]) -> Option<Latency> {
    let tail_pct = tail_percentile(values.len())?;
    Some(Latency {
        p50: median(values),
        tail: percentile(values, tail_pct),
        tail_pct,
        samples: values.len(),
    })
}

/// `values` as a space-separated list with four significant digits, for
/// the notes a run prints.
pub fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // Too few samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..5000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                // The next rung up would leave fewer than ten beyond.
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                    assert!(n - nearest_rank(higher, n) < TAIL_MIN_BEYOND, "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn latency_summary_reports_percentile_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&v).unwrap();
        assert_eq!(
            (l.p50, l.tail, l.tail_pct, l.samples),
            (50.5, 90.0, 90.0, 100)
        );
        assert!(latency(&v[..5]).is_none());
    }
}
