//! Order statistics and the log2 histogram the traced run folds per-call
//! spans into.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so `selfcheck.sh` and a reader with a
/// Python prompt agree on the spread.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    assert!(sorted.len() >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let m = sorted.len() + 1;
        let j = (k * m / 4).clamp(1, sorted.len() - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

/// Median, quartiles, extremes and count of one timing's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let median = median(values);
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (median, median)
        };
        Summary {
            median,
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A value known exactly (a simulated statistic, a byte count).
    pub fn exact(value: f64) -> Self {
        Summary::of(&[value])
    }

    /// The one number a run reports for this metric: the quartile on its
    /// better side — the first for a time, the third for a rate.
    ///
    /// The box is a few cores of a shared host, and what the neighbours do
    /// only ever adds time, in bursts of a few seconds to minutes that slow
    /// an iteration by 10–75 %.  A burst moves a run's median once it covers
    /// half the run, its better quartile only once it covers three quarters;
    /// a change to the code moves every iteration, so the quartile shows it
    /// as well as the median does.  README, "Measured noise", has the numbers.
    pub fn reported(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.q3
        } else {
            self.q1
        }
    }

    /// `(q3 − q1) / median`: the spread a bound is judged against.
    pub fn spread_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Durations in nanoseconds, bucketed by `floor(log2(ns))`: bucket `b` holds
/// `[2^b, 2^(b+1))`, and bucket 0 also holds 0 ns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    pub buckets: [u64; 64],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 64] }
    }
}

impl Log2Histogram {
    pub fn bucket_of(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros()) as usize
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket (so accurate to the bucket: a factor of two at worst).
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0.0;
        for (b, &count) in self.buckets.iter().enumerate() {
            let count = count as f64;
            if count > 0.0 && seen + count >= rank {
                let low = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
                let high = (1u128 << (b + 1)) as f64;
                return low + (high - low) * ((rank - seen) / count);
            }
            seen += count;
        }
        u64::MAX as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert!((Summary::of(&values).spread_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        assert_eq!((s.q1, s.q3), (2.0, 9.0));
        let exact = Summary::exact(1.5);
        assert_eq!(
            (exact.min, exact.q1, exact.q3, exact.max, exact.n),
            (1.5, 1.5, 1.5, 1.5, 1)
        );
        assert_eq!(exact.spread_share(), 0.0);
    }

    #[test]
    fn a_run_reports_the_quartile_on_its_better_side() {
        // Five quiet iterations and seven inside a burst: the median sits in
        // the burst, the first quartile does not.
        let wall = [
            1.0, 1.01, 1.0, 1.02, 1.01, 1.2, 1.3, 1.3, 1.4, 1.5, 1.25, 1.35,
        ];
        let s = Summary::of(&wall);
        assert!(s.median > 1.2 && s.reported(false) <= 1.01);
        let rate: Vec<f64> = wall.iter().map(|w| 100.0 / w).collect();
        assert!(Summary::of(&rate).reported(true) >= 100.0 / 1.01);
        assert_eq!(Summary::exact(2.5).reported(false), 2.5);
        assert_eq!(Summary::exact(2.5).reported(true), 2.5);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(1023), 9);
        assert_eq!(Log2Histogram::bucket_of(1024), 10);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0.0);
        h.buckets[Log2Histogram::bucket_of(100)] = 99; // bucket 6: [64, 128)
        h.buckets[Log2Histogram::bucket_of(5_000)] = 1; // bucket 12: [4096, 8192)
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5);
        assert!((64.0..128.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((64.0..=128.0).contains(&p99), "p99 {p99}");
        let p100 = h.quantile_ns(1.0);
        assert!((4096.0..=8192.0).contains(&p100), "p100 {p100}");
    }
}
