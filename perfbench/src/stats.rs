//! Order statistics for timing samples.
//!
//! A timing is reported as its median and its *tail*: the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, capped at
//! [`TAIL_CAP_PERCENT`]. Both carry the sample count, so a reader can tell a p95
//! over 250 queries from a p60 over 25.

/// Samples that must lie strictly beyond the tail percentile's rank.
pub const TAIL_BEYOND: usize = 10;

/// The tail is never reported above this percentile, so it stays comparable
/// when a faster program completes more queries in the same run.
pub const TAIL_CAP_PERCENT: f64 = 95.0;

/// Median and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// Percentile of [`Summary::tail`], or `None` when fewer than `2 · TAIL_BEYOND`
    /// samples leave no percentile at or above the median with enough beyond it.
    pub tail_percent: Option<f64>,
    /// Nearest-rank value at `tail_percent` (the median when there is no tail).
    pub tail: f64,
}

/// Median of `xs`; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of `xs` (see the module docs). Ranks are computed in
/// integers, so a percentile such as p60 of 25 samples lands exactly on rank 15.
pub fn summarize(xs: &[f64]) -> Summary {
    let n = xs.len();
    let med = median(xs);
    // 1-based rank with exactly TAIL_BEYOND samples beyond it; a "tail" below
    // the median is no tail at all.
    let rank = n.saturating_sub(TAIL_BEYOND);
    if n == 0 || 2 * rank < n {
        return Summary {
            n,
            median: med,
            tail_percent: None,
            tail: med,
        };
    }
    // Nearest rank of the capped percentile: ⌈cap · n / 100⌉.
    let cap = TAIL_CAP_PERCENT as usize;
    let capped_rank = (cap * n).div_ceil(100);
    let (rank, percent) = if rank <= capped_rank {
        (rank, 100.0 * rank as f64 / n as f64)
    } else {
        (capped_rank, TAIL_CAP_PERCENT)
    };
    Summary {
        n,
        median: med,
        tail_percent: Some(percent),
        tail: sorted(xs)[rank - 1],
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.tail_percent, None);
        assert_eq!(s.tail, 3.0);
        // 19 samples: only p47.4 has 10 beyond it, which is below the median.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_percent, s.tail), (None, 10.0));
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_percent, s.tail), (Some(50.0), 10.0));
    }

    #[test]
    fn small_samples_report_the_highest_supported_percentile() {
        // 25 samples: rank 15 leaves 10 beyond, i.e. p60.
        let v: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 25);
        assert_eq!(s.median, 13.0);
        assert_eq!(s.tail_percent, Some(60.0));
        assert_eq!(s.tail, 15.0);
    }

    #[test]
    fn large_samples_are_capped_at_p95() {
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_percent, Some(95.0));
        assert_eq!(s.tail, 190.0);
        // 201 samples: p95 is rank ⌈190.95⌉ = 191, leaving 10 beyond.
        let v: Vec<f64> = (1..=201).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, 191.0);
        // 1000 samples could support p99, but the cap holds at p95.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_percent, Some(95.0));
        assert_eq!(s.tail, 950.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..40).map(|i| ((i * 17) % 40) as f64).collect();
        let a = summarize(&v);
        v.sort_by(f64::total_cmp);
        assert_eq!(summarize(&v), a);
        // 40 samples: rank 30 (p75) leaves 10 beyond.
        assert_eq!(a.tail_percent, Some(75.0));
        assert_eq!(a.tail, 29.0);
    }
}
