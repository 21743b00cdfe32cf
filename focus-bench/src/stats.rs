//! Order statistics for benchmark samples: median, quartiles, min/max,
//! pooled-sample percentiles, and the rule for which tail percentile a
//! sample is large enough to report.

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of an ascending
/// slice. Panics on an empty slice: a metric with no samples is a bug in
/// the workload, not a value to invent.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentile of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Min, quartiles, median and max of unsorted samples.
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    Summary {
        n: v.len(),
        min: v[0],
        q1: percentile_sorted(&v, 25.0),
        median: percentile_sorted(&v, 50.0),
        q3: percentile_sorted(&v, 75.0),
        max: v[v.len() - 1],
    }
}

/// Tail percentiles a report may quote, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `n` samples beyond it (p90 needs 100 samples, p99 needs 1,000), or
/// `None` when even p75 does not: a tail read off fewer than ten samples
/// is the position of one or two outliers, not a percentile.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// `(percentile, value)` of the reportable tail of `xs`; falls back to
/// the maximum (`percentile = 100`) when the sample is too small for any.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    match reportable_tail(xs.len()) {
        Some(p) => (p, percentile(xs, p)),
        None => (100.0, summarize(xs).max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(summarize(&[7.0]).q3, 7.0);
    }

    #[test]
    fn pooled_percentiles() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 90.0), 91.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(39), None);
        assert_eq!(reportable_tail(40), Some(75.0));
        assert_eq!(reportable_tail(99), Some(75.0));
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(999), Some(90.0));
        assert_eq!(reportable_tail(1_000), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
        // Too few samples for any percentile: report the maximum.
        assert_eq!(tail(&[1.0, 9.0, 4.0]), (100.0, 9.0));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 90.0);
    }
}
