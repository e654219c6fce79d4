//! Statistical helpers used by the evaluation harness: percentiles,
//! histograms, correlation, the Box–Muller transform shared by every
//! Gaussian sampler in the workspace, and the two-sample
//! Kolmogorov–Smirnov test the paper uses to quantify over-selection
//! sampling bias (Section 7.4).

/// The Box–Muller transform: maps two uniforms to two independent standard
/// normals.  `u1` must lie in `(0, 1]` (so the log is finite) and `u2` in
/// `[0, 1)`; producing the uniforms is the caller's job, which keeps the
/// transform usable from any RNG (`StdRng` populations and surrogates,
/// `ChaCha20Rng` DP noise) without an RNG trait bound.
pub fn standard_normal_pair(u1: f64, u2: f64) -> (f64, f64) {
    debug_assert!(u1 > 0.0 && u1 <= 1.0, "u1 must be in (0, 1], got {u1}");
    let radius = (-2.0 * u1.ln()).sqrt();
    let angle = 2.0 * std::f64::consts::PI * u2;
    (radius * angle.cos(), radius * angle.sin())
}

/// Returns the `p`-th percentile (0–100) of `values` using linear
/// interpolation between order statistics.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted = values.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "NaN in a latency/metric sample is corrupt input; a silent NaN ordering would quietly skew every percentile"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two elements.
pub(crate) fn pearson_correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// A fixed-width histogram over log-spaced or linear bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bin edges (length = bins + 1).
    pub edges: Vec<f64>,
    /// Counts per bin.
    pub(crate) counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram with logarithmically spaced bins between the
    /// minimum and maximum of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, contains non-positive entries, or
    /// `bins == 0`.
    pub fn log_spaced(values: &[f64], bins: usize) -> Self {
        assert!(!values.is_empty() && bins > 0);
        assert!(
            values.iter().all(|&v| v > 0.0),
            "log bins need positive data"
        );
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max) * 1.000001;
        let log_min = min.ln();
        let log_max = max.ln();
        let edges: Vec<f64> = (0..=bins)
            .map(|i| (log_min + (log_max - log_min) * i as f64 / bins as f64).exp())
            .collect();
        let mut counts = vec![0usize; bins];
        for &v in values {
            let t = ((v.ln() - log_min) / (log_max - log_min) * bins as f64).floor() as usize;
            counts[t.min(bins - 1)] += 1;
        }
        Histogram { edges, counts }
    }

    /// Normalized densities (counts / total).
    pub fn densities(&self) -> Vec<f64> {
        let total: usize = self.counts.iter().sum();
        self.counts
            .iter()
            .map(|&c| c as f64 / total.max(1) as f64)
            .collect()
    }
}

/// Result of a two-sample Kolmogorov–Smirnov test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KsTestResult {
    /// The D statistic: maximum absolute distance between the empirical CDFs.
    pub d_statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution approximation).
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Returns the D statistic and an asymptotic p-value.  The paper reports
/// D = 8.8e-4 (p = 0.98) for AsyncFL vs the ground-truth participation
/// distribution and D = 6.6e-2 (p = 0.0) for SyncFL with over-selection.
///
/// # Panics
///
/// Panics if either sample is empty.
pub fn ks_two_sample(sample_a: &[f64], sample_b: &[f64]) -> KsTestResult {
    assert!(!sample_a.is_empty() && !sample_b.is_empty(), "empty sample");
    let mut a = sample_a.to_vec();
    let mut b = sample_b.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "NaN in a KS sample is corrupt input; failing loudly beats a meaningless test statistic"
    )]
    a.sort_by(|x, y| x.partial_cmp(y).expect("NaN"));
    #[expect(
        clippy::expect_used,
        reason = "NaN in a KS sample is corrupt input; failing loudly beats a meaningless test statistic"
    )]
    b.sort_by(|x, y| x.partial_cmp(y).expect("NaN"));
    let (n, m) = (a.len(), b.len());
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let xa = a[i];
        let xb = b[j];
        let x = xa.min(xb);
        while i < n && a[i] <= x {
            i += 1;
        }
        while j < m && b[j] <= x {
            j += 1;
        }
        let cdf_a = i as f64 / n as f64;
        let cdf_b = j as f64 / m as f64;
        d = d.max((cdf_a - cdf_b).abs());
    }
    let ne = (n as f64 * m as f64) / (n as f64 + m as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    let p_value = kolmogorov_sf(lambda).clamp(0.0, 1.0);
    KsTestResult {
        d_statistic: d,
        p_value,
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda.powi(2)).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    2.0 * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentile_of_known_sequence() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile(&v, 100.0) - 100.0).abs() < 1e-9);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[3.0], 75.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn correlation_of_identical_is_one() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert!((pearson_correlation(&x, &x) - 1.0).abs() < 1e-9);
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson_correlation(&x, &y) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_of_constant_is_zero() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![5.0, 5.0, 5.0];
        assert_eq!(pearson_correlation(&x, &y), 0.0);
    }

    #[test]
    fn histogram_counts_sum_to_input_len() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let hist = Histogram::log_spaced(&values, 20);
        assert_eq!(hist.counts.iter().sum::<usize>(), 1000);
        assert_eq!(hist.edges.len(), 21);
        let densities = hist.densities();
        assert!((densities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_identical_samples_have_small_d() {
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        let result = ks_two_sample(&a, &b);
        assert!(result.d_statistic < 0.05, "D = {}", result.d_statistic);
        assert!(result.p_value > 0.05, "p = {}", result.p_value);
    }

    #[test]
    fn ks_shifted_samples_have_large_d() {
        let mut rng = StdRng::seed_from_u64(2);
        let a: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>() + 0.3).collect();
        let result = ks_two_sample(&a, &b);
        assert!(result.d_statistic > 0.2, "D = {}", result.d_statistic);
        assert!(result.p_value < 0.01, "p = {}", result.p_value);
    }

    #[test]
    fn ks_is_symmetric() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b = vec![1.5, 2.5, 3.5];
        let r1 = ks_two_sample(&a, &b);
        let r2 = ks_two_sample(&b, &a);
        assert!((r1.d_statistic - r2.d_statistic).abs() < 1e-12);
    }

    #[test]
    fn mean_known_value() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
