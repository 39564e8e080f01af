//! The estimators every reported number goes through.

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    interpolate(sorted.len(), p, |i| sorted[i])
}

fn interpolate(len: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    at(lo) + (at(hi) - at(lo)) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// First quartile, median and third quartile of an unsorted sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        percentile_sorted(&s, 25.0),
        percentile_sorted(&s, 50.0),
        percentile_sorted(&s, 75.0),
    )
}

/// Inter-quartile range as a share of the median — the noise figure the
/// benchmark reports about itself and `compare` resolves against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Median and 99th percentile of per-call durations (nanoseconds). Sorts
/// in place: the caller's buffer is reused every round.
pub fn call_percentiles_ns(calls: &mut [u32]) -> (f64, f64) {
    calls.sort_unstable();
    let at = |p| interpolate(calls.len(), p, |i| f64::from(calls[i]));
    (at(50.0), at(99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.0), 0.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn quartiles_and_iqr_share() {
        let (q1, med, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, med, q3), (2.0, 3.0, 4.0));
        assert!((iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn call_percentiles_sort_their_input() {
        let mut calls: Vec<u32> = (1..=101).rev().collect();
        let (p50, p99) = call_percentiles_ns(&mut calls);
        assert_eq!(p50, 51.0);
        assert_eq!(p99, 100.0);
        assert!(calls.windows(2).all(|w| w[0] <= w[1]));
    }
}
