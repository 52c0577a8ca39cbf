//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); `0.0` for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail percentiles this harness knows how to report, highest first.
const TAILS: [(&str, f64); 4] = [
    ("p99.9", 0.999),
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
];

/// The tail percentiles that still have at least ten samples beyond them,
/// highest first — a percentile resting on fewer is a few slow requests,
/// not a tail.
pub fn supported_tails(samples: usize) -> impl Iterator<Item = (&'static str, f64)> {
    TAILS
        .into_iter()
        .filter(move |(_, q)| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let highest = |n| supported_tails(n).next().map(|t| t.0);
        assert_eq!(highest(99), None);
        assert_eq!(highest(100), Some("p90"));
        assert_eq!(highest(199), Some("p90"));
        assert_eq!(highest(200), Some("p95"));
        assert_eq!(highest(999), Some("p95"));
        assert_eq!(highest(1000), Some("p99"));
        assert_eq!(highest(10_000), Some("p99.9"));
        let all: Vec<_> = supported_tails(1000).map(|t| t.0).collect();
        assert_eq!(all, ["p99", "p95", "p90"]);
    }
}
