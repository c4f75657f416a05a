//! Summary statistics shared by the end-to-end and per-layer reports.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail latency the benchmark reports: the highest percentile (at
/// most the 99th) that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 99]`.
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Computes [`Tail`] over `values`; `None` when fewer than
/// `TAIL_SAMPLES_BEYOND + 1` samples exist (no percentile qualifies).
///
/// The rank is nearest-rank: percentile `p` of `n` samples is the
/// `ceil(p·n/100)`-th smallest. The 99th percentile qualifies from 1000
/// samples on; below that the percentile drops to `100·(n−10)/n`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let max_rank = n - TAIL_SAMPLES_BEYOND;
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(max_rank);
    let percentile = if rank == p99_rank {
        99.0
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Request outcomes: every failure counts against the requests attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempted request and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_from_1000_samples() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);

        let values: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 4950.0, 50));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_runs() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);

        // 999 samples: p99's rank (990) would leave only 9 beyond.
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!(t.percentile < 99.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[1.0; 11]).expect("eleven suffice");
        assert_eq!((t.beyond, t.samples), (10, 11));
    }

    #[test]
    fn failures_count_against_attempted() {
        let mut t = Tally::default();
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
