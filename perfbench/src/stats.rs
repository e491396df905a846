//! Order statistics and the pass/fail arithmetic the report is built from.

/// Tail percentiles considered for a timing, in parts per thousand.
const TAIL_PERMILLE: [u32; 4] = [500, 900, 990, 999];

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest of the p50/p90/p99/p99.9 percentiles (in parts per
/// thousand) that has at least [`MIN_BEYOND`] of `n` samples beyond it;
/// `None` when even the median has fewer.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_PERMILLE
        .iter()
        .copied()
        .filter(|&p| n * (1000 - p as usize) / 1000 >= MIN_BEYOND)
        .max()
}

/// The nearest-rank percentile `permille` of `samples`.
pub fn percentile(samples: &[f64], permille: u32) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * permille as usize).div_ceil(1000).max(1);
    v.get(rank - 1).copied()
}

/// The median of the samples taken with the least slowed-down quarter
/// (rounded up) of the runs: `samples[i]` was taken before run `i`, which
/// was slowed down by `slowdown[i]`. `None` when there are none.
pub fn quiet_median(samples: &[f64], slowdown: &[f64]) -> Option<f64> {
    let mut order: Vec<usize> = (0..slowdown.len().min(samples.len())).collect();
    order.sort_by(|&a, &b| slowdown[a].total_cmp(&slowdown[b]));
    let quiet: Vec<f64> = order[..order.len().div_ceil(4)]
        .iter()
        .map(|&i| samples[i])
        .collect();
    median(&quiet)
}

/// Failed operations as a share of attempted ones (0 when nothing ran).
pub fn fail_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Running tally of operations and their failures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Counts one operation, failed unless `ok`; prints `what` on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok));
        if !ok {
            println!("MISMATCH {}", what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.add(other.attempted, other.failed);
    }

    pub fn fail_rate(&self) -> f64 {
        fail_rate(self.attempted, self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 0..12_000 {
            if let Some(p) = tail_permille(n) {
                let beyond = n - (n * p as usize).div_ceil(1000);
                assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(500.0));
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn quiet_median_reads_the_least_slowed_quarter() {
        assert_eq!(quiet_median(&[], &[]), None);
        let samples = [9.0, 2.0, 8.0, 7.0];
        // One run of four is the least slowed quarter: the second.
        assert_eq!(quiet_median(&samples, &[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        // Five round up to two: the second and the fifth.
        let more = [9.0, 2.0, 8.0, 7.0, 4.0];
        assert_eq!(quiet_median(&more, &[4.0, 1.0, 3.0, 2.5, 2.0]), Some(3.0));
    }

    #[test]
    fn fail_rate_arithmetic() {
        assert_eq!(fail_rate(0, 0), 0.0);
        assert_eq!(fail_rate(4, 1), 0.25);
        let mut t = Tally::default();
        t.add(10, 0);
        t.check(true, String::new);
        t.check(false, || "one bad".into());
        let mut u = Tally::default();
        u.add(9, 2);
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 21,
                failed: 3
            }
        );
        assert_eq!(t.fail_rate(), 3.0 / 21.0);
    }
}
