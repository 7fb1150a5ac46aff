//! Order statistics for timings: medians, quartiles, and the tail
//! percentile rule.
//!
//! A tail is reported at the highest percentile (capped at p99) that
//! still has at least [`TAIL_BEYOND`] samples beyond it, so every tail
//! figure rests on ten or more observations. A tail is never taken
//! below the median: with fewer than twenty samples the maximum stands
//! in.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median, tail, and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle pair for even counts).
    pub p50: f64,
    /// Value at the tail percentile ([`tail_rank`]).
    pub tail: f64,
    /// Percentile the tail was taken at, in percent; 100 means the
    /// maximum stood in because too few samples were taken.
    pub tail_pct: f64,
}

/// Summarises `values` (any order). `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (rank, pct) = tail_rank(sorted.len());
    Some(Summary {
        n: sorted.len(),
        p50: median_sorted(&sorted),
        tail: sorted[rank - 1],
        tail_pct: pct,
    })
}

/// Nearest-rank position (1-based) and percentile of the tail for `n`
/// samples: the highest percentile up to p99 whose rank leaves at
/// least [`TAIL_BEYOND`] samples above it, or the maximum (rank `n`,
/// 100%) when that percentile would fall below the median.
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "tail of an empty sample");
    if n < 2 * TAIL_BEYOND {
        return (n, 100.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_BEYOND);
    let pct = if rank == p99_rank {
        99.0
    } else {
        100.0 * rank as f64 / n as f64
    };
    (rank, pct)
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(median_sorted(&sorted))
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_a_thousand_samples_leave_ten_beyond() {
        assert_eq!(tail_rank(1000), (990, 99.0));
        assert_eq!(tail_rank(5000), (4950, 99.0));
        // 999 samples: p99 would sit at rank 990 with only 9 above it.
        let (rank, pct) = tail_rank(999);
        assert_eq!(rank, 989);
        assert_eq!(999 - rank, TAIL_BEYOND);
        assert!(pct < 99.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond_for_small_samples() {
        for n in 20..1000 {
            let (rank, pct) = tail_rank(n);
            assert!(n - rank >= TAIL_BEYOND, "n={n} rank={rank}");
            assert!(rank >= n / 2, "n={n} rank={rank}");
            assert!(pct <= 99.0);
        }
        let (rank, pct) = tail_rank(36);
        assert_eq!(rank, 26);
        assert!((pct - 72.2).abs() < 0.1, "{pct}");
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        assert_eq!(tail_rank(1), (1, 100.0));
        assert_eq!(tail_rank(10), (10, 100.0));
        // 16 samples: ten beyond would put the tail at p37.5, below the
        // median.
        assert_eq!(tail_rank(16), (16, 100.0));
        assert_eq!(tail_rank(20), (10, 50.0));
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail_pct, 100.0);
    }

    #[test]
    fn summary_reads_the_sorted_sample() {
        let values: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.5);
        assert_eq!(s.tail, 1980.0);
        assert_eq!(s.tail_pct, 99.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_and_percentile_agree_on_odd_samples() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), Some(3.0));
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 100.0), Some(5.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
    }
}
