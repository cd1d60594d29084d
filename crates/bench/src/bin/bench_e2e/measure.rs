//! Sample statistics for the reported numbers: median, quartiles and
//! a tail percentile that is only reported when enough samples lie
//! beyond it.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported tail percentile.
/// With it, the 90th percentile needs at least 100 samples.
pub const MIN_TAIL: usize = 10;

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Microseconds in `d`, with all its digits.
pub fn us(d: Duration) -> f64 {
    ms(d) * 1000.0
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so in-run spreads match the ones computed across runs.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return v.first().map(|&x| [x; 3]);
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` may be negative after clamping; the formula then
        // extrapolates, as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank `p`th percentile, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it: a tail that rests on a handful
/// of samples is not reported at all.
pub fn tail_percentile(xs: &[f64], p: u32) -> Option<f64> {
    let n = xs.len();
    let rank = (usize::try_from(p).ok()? * n).div_ceil(100);
    if rank == 0 || rank > n || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Summary of one series of op times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Fastest sample.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile; `None` below 100 samples.
    pub p90: Option<f64>,
}

/// Summarizes `xs`; `None` when it is empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let [q1, _, q3] = quartiles(xs)?;
    Some(Summary {
        n: xs.len(),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        p50: median(xs)?,
        q1,
        q3,
        p90: tail_percentile(xs, 90),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&one_to(100), 90), Some(90.0));
        assert_eq!(tail_percentile(&one_to(99), 90), None);
        assert_eq!(tail_percentile(&one_to(1000), 90), Some(900.0));
        // At 200 samples p95 leaves exactly ten beyond it, p96 eight.
        assert_eq!(tail_percentile(&one_to(200), 95), Some(190.0));
        assert_eq!(tail_percentile(&one_to(200), 96), None);
        assert_eq!(tail_percentile(&[], 50), None);
    }

    #[test]
    fn summary_reports_p90_only_from_a_hundred_samples() {
        let s = summarize(&one_to(100)).expect("non-empty");
        assert_eq!((s.n, s.min, s.p50, s.p90), (100, 1.0, 50.5, Some(90.0)));
        assert_eq!(summarize(&one_to(50)).map(|s| s.p90), Some(None));
    }
}
