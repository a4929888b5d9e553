//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw nanoseconds and sorted at the end, so a
//! percentile is a sample that was measured, not a bucket bound
//! (`obs::Histogram` buckets are a factor of 2 wide — useless for a 10 %
//! regression bound).

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried in order when a sample is too small for the one
/// asked for.
const FALLBACKS: [f64; 4] = [0.99, 0.95, 0.90, 0.50];

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// `true` when `n` samples leave at least [`MIN_BEYOND`] beyond `q`.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
}

/// The exact `q` quantile of `sorted`, or `None` when the sample does
/// not support it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supported(sorted.len(), q).then(|| sorted[rank(sorted.len(), q)])
}

/// The `q` quantile when supported, else the highest supported fallback;
/// returns the quantile actually used. The median needs no support.
pub fn percentile_or_lower(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    if sorted.is_empty() {
        return None;
    }
    std::iter::once(q)
        .chain(FALLBACKS.into_iter().filter(|f| *f < q))
        .find_map(|p| percentile(sorted, p).map(|v| (v, p)))
        .or_else(|| Some((sorted[rank(sorted.len(), 0.5)], 0.5)))
}

/// Median of unsorted floats (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some((v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0)
}

/// Median of raw nanosecond samples, in microseconds.
pub fn median_us(samples: &mut [u32]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    f64::from(samples[samples.len() / 2]) / 1e3
}

/// `upper − lower` for a ladder subtraction. A rung can measure faster
/// than the one below it (noise, or a wrong ladder); the self time is
/// then clamped to zero and the flag says so, so a negative never passes
/// silently as a small number.
pub fn self_time(upper: f64, lower: f64) -> (f64, bool) {
    let d = upper - lower;
    if d < 0.0 {
        (0.0, true)
    } else {
        (d, false)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_sorted_vector() {
        let sorted: Vec<f64> = (1..=2000).map(f64::from).collect();
        // Nearest rank: the 99th percentile of 1..=2000 is 1980.
        assert_eq!(percentile(&sorted, 0.99), Some(1980.0));
        assert_eq!(percentile(&sorted, 0.50), Some(1000.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1000 samples: p99 is index 989, leaving exactly 10 beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), None);
        // Falls back to p95 (index 474, 25 beyond) and says so.
        assert_eq!(percentile_or_lower(&small, 0.99), Some((474.0, 0.95)));
        let tiny: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(percentile_or_lower(&tiny, 0.99), Some((2.0, 0.5)));
        assert_eq!(percentile_or_lower(&[], 0.99), None);
    }

    #[test]
    fn negative_self_time_is_clamped_and_flagged() {
        assert_eq!(self_time(30.0, 12.5), (17.5, false));
        assert_eq!(self_time(10.0, 12.5), (0.0, true));
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
    }
}
