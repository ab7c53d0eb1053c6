//! Order statistics for the report: medians, spreads and the tail
//! percentile a sample is large enough to support.

/// Median of `values` (mean of the two middle ones for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`, in percent — the run-to-run spread printed
/// beside every host metric. 0 when the median is 0.
pub fn spread_pct(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med.abs() * 100.0
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u32], pct: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the report may quote, with the share of samples
/// beyond each in parts per 10 000 (integers: 100 samples have exactly
/// ten beyond p90, which `1.0 - 0.9` would deny).
const TAILS: [(f64, u64); 4] = [(90.0, 1000), (99.0, 100), (99.9, 10), (99.99, 1)];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it — a p99.9 over 2 000 samples would rest on two of them. `None`
/// when even p90 does not (fewer than 100 samples).
pub fn highest_supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .rev()
        .find(|&(_, beyond)| samples as u64 * beyond >= 10 * 10_000)
        .map(|(pct, _)| pct)
}

/// A latency sample reduced for the report: the median, the tails the
/// sample count supports, and the count itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Latency {
    pub samples: usize,
    pub p50: u32,
    /// `None` below 1 000 samples.
    pub p99: Option<u32>,
    /// `None` below 10 000 samples.
    pub p999: Option<u32>,
    pub max: u32,
}

/// Sort `samples` in place and reduce them.
pub fn latency(samples: &mut [u32]) -> Latency {
    samples.sort_unstable();
    let top = highest_supported_tail(samples.len()).unwrap_or(0.0);
    let tail = |pct: f64| (top >= pct).then(|| percentile_sorted(samples, pct));
    Latency {
        samples: samples.len(),
        p50: percentile_sorted(samples, 50.0),
        p99: tail(99.0),
        p999: tail(99.9),
        max: samples.last().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread_pct(&[1.0, 2.0, 3.0]), 100.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
        assert_eq!(spread_pct(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(999), Some(90.0));
        assert_eq!(highest_supported_tail(1_000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(2_000_000), Some(99.99));
    }

    #[test]
    fn latency_reports_count_median_tail_and_max() {
        let mut s: Vec<u32> = (1..=1000).rev().collect();
        let l = latency(&mut s);
        assert_eq!(l.samples, 1000);
        assert_eq!(l.p50, 500);
        assert_eq!((l.p99, l.p999), (Some(990), None));
        assert_eq!(l.max, 1000);
        let mut few = vec![7u32, 3, 5];
        let l = latency(&mut few);
        assert_eq!((l.p50, l.p99, l.max), (5, None, 7));
        assert_eq!(latency(&mut []), Latency::default());
    }
}
