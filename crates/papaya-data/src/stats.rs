//! Statistical helpers used by the evaluation harness: percentiles,
//! histograms, correlation, the Box–Muller transform shared by every
//! Gaussian sampler in the workspace, its batched `f32` form for the
//! surrogates, and the two-sample Kolmogorov–Smirnov test the paper uses
//! to quantify over-selection sampling bias (Section 7.4).

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

/// The relative error bound `E / |r|` of [`box_muller_candidate`]: the
/// candidate `r` lies within `2^-36 · |r|` of `standard_normal_pair`'s
/// first normal wherever libm's `log` and `cos` are within 1 ulp.
///
/// The budget, relative to `|r|`:
///
/// * the candidate's `ln` truncates its atanh series after eight terms, at
///   most `2^-44.7`, and rounds by at most `2^-49.8`; the square root halves
///   that and rounds once more, so the radius is within `2^-45.6`;
/// * its cosine truncates the sine's Taylor series after ten terms, at most
///   `2^-51.8`, and rounds in the reduction and the polynomial by at most
///   `2^-50.3`: within `2^-49`;
/// * the final product rounds once, `2^-53`;
/// * libm's `log` and `cos` at 1 ulp each and the reference's own
///   square root and product add `5 · 2^-53`.
///
/// The sum, `2^-45.3`, is more than `2^9` below this bound.  Both sides
/// take the cosine of the same `f64` angle `fl(2π · u2)`, so the rounding
/// of that product is common to both and costs nothing.
pub const BOX_MULLER_RELATIVE_ERROR: f64 = 1.0 / 68_719_476_736.0;

/// `2^52`: `from_bits(TWO_52.to_bits() | e) − 2^52` is `e` as an `f64`.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// π/2 in three parts (fdlibm's `pio2_1`, `pio2_2` and `pio2_2t`).  The
/// first two have at most 33 significant bits, so their products with
/// `q ≤ 3` are exact; the sum of all three is within `2^-122` of π/2.
const PIO2_HI: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_MID: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
const PIO2_LO: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);

/// `ln u`, within `2^-44.6` of it relatively, for normal `u` in `(0, 1]`.
///
/// `u = 2^k · m` with `m` in `[√2/2, √2)`; for `f = m − 1` (exact) and
/// `s = f/(2 + f)`, `|s| ≤ 0.1716` and `ln m = 2 atanh s`, here its first
/// eight terms `2s(1 + s²/3 + … + s¹⁴/15)`.  Branch-free, for the
/// vectoriser: `k` comes from the exponent bits and becomes an `f64`
/// through `2^52`, without an integer conversion baseline x86-64 lacks.
#[inline(always)]
fn ln_unit(u: f64) -> f64 {
    const FRAC_1_SQRT_2_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = u
        .to_bits()
        .wrapping_add(1.0f64.to_bits() - FRAC_1_SQRT_2_BITS);
    let k = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - (TWO_52 + 1023.0);
    let m = f64::from_bits((bits & MANTISSA) + FRAC_1_SQRT_2_BITS);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let p = 1.0
        + z * (1.0 / 3.0
            + z * (1.0 / 5.0
                + z * (1.0 / 7.0
                    + z * (1.0 / 9.0 + z * (1.0 / 11.0 + z * (1.0 / 13.0 + z * (1.0 / 15.0)))))));
    k * std::f64::consts::LN_2 + (2.0 * s) * p
}

/// `cos θ` for `θ` in `[0, 2π]`, within `2^-49` of it relatively.
///
/// `θ = q·π/2 + x` with `q` the odd multiple nearer `θ`, 1 below π and 3
/// from it, so that `|x| ≤ π/2` and `cos θ = ∓sin x`.  The reduction takes
/// π/2 in three parts: where `x` is near zero, `θ − q·PIO2_HI` is exact,
/// and the other two parts keep `x` accurate to `2^-51` relatively even at
/// the doubles nearest `π/2` and `3π/2`, which are at least `2^-53.9` from
/// them.  `sin x` is the first ten terms of its Taylor series.
#[inline(always)]
fn cos_angle(theta: f64) -> f64 {
    let below_pi = theta < std::f64::consts::PI;
    let q = if below_pi { 1.0 } else { 3.0 };
    let x = ((theta - q * PIO2_HI) - q * PIO2_MID) - q * PIO2_LO;
    let z = x * x;
    let sin = x
        + (x * z)
            * (-1.0 / 6.0
                + z * (1.0 / 120.0
                    + z * (-1.0 / 5_040.0
                        + z * (1.0 / 362_880.0
                            + z * (-1.0 / 39_916_800.0
                                + z * (1.0 / 6_227_020_800.0
                                    + z * (-1.0 / 1_307_674_368_000.0
                                        + z * (1.0 / 355_687_428_096_000.0
                                            + z * (-1.0 / 121_645_100_408_832_000.0)))))))));
    if below_pi {
        -sin
    } else {
        sin
    }
}

/// Box–Muller's first normal, `√(−2 ln u1) · cos(2π · u2)`, from IEEE basic
/// operations only: within [`BOX_MULLER_RELATIVE_ERROR`]` · |r|` of
/// `standard_normal_pair(u1, u2).0` for normal `u1` in `(0, 1]` and `u2`
/// in `[0, 1)`, and NaN for any other input.  The angle is the reference's
/// own `f64` product.
#[inline(always)]
pub fn box_muller_candidate(u1: f64, u2: f64) -> f64 {
    // `&`, not `&&`: no branch, so the caller's loop vectorises.
    let in_domain = (f64::MIN_POSITIVE..=1.0).contains(&u1) & (0.0..1.0).contains(&u2);
    let radius = (-2.0 * ln_unit(u1)).sqrt();
    let r = radius * cos_angle(2.0 * std::f64::consts::PI * u2);
    if in_domain {
        r
    } else {
        f64::NAN
    }
}

/// `r as f32` if every value within `BOX_MULLER_RELATIVE_ERROR · |r|` of
/// `r` rounds to it, and NaN — the mark for "recompute" — otherwise: when
/// an `f32` rounding boundary lies that close, when `r` is NaN, and when
/// `r` is zero, whose sign the bound does not fix.
#[inline(always)]
fn checked_f32(r: f64) -> f32 {
    let e = r.abs() * BOX_MULLER_RELATIVE_ERROR;
    let (lo, hi) = ((r - e) as f32, (r + e) as f32);
    if (lo == hi) & (r != 0.0) {
        hi
    } else {
        f32::NAN
    }
}

/// `out[i] = standard_normal_pair(u1[i], u2[i]).0 as f32`, bit for bit,
/// without libm on all but a few hundredths of a percent of the elements.
///
/// A first, branch-free pass computes each [`box_muller_candidate`] and
/// keeps its `f32` rounding where the error bound cannot move it; a second
/// pass recomputes every other element with `standard_normal_pair` itself.
/// So the output is libm's wherever libm's `log` and `cos` stay within the
/// budget [`BOX_MULLER_RELATIVE_ERROR`] states.  The domain is `u1` normal
/// and in `(0, 1]`; anything else, `u2` outside `[0, 1)` and NaN included,
/// takes the second pass.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn standard_normals_f32(u1: &[f64], u2: &[f64], out: &mut [f32]) {
    assert!(
        u1.len() == out.len() && u2.len() == out.len(),
        "standard_normals_f32: {} and {} uniforms for {} normals",
        u1.len(),
        u2.len(),
        out.len()
    );
    debug_assert!(
        u1.iter().all(|u| (f64::MIN_POSITIVE..=1.0).contains(u)),
        "u1 must be normal and in (0, 1]"
    );
    for ((o, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *o = checked_f32(box_muller_candidate(a, b));
    }
    for ((o, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        if o.is_nan() {
            *o = standard_normal_pair(a, b).0 as f32;
        }
    }
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

    /// Asserts `standard_normals_f32` equals the scalar transform bit for bit
    /// on every `(u1[i], u2[i])`.
    fn assert_matches_scalar(u1: &[f64], u2: &[f64]) {
        let mut out = vec![0.0f32; u1.len()];
        standard_normals_f32(u1, u2, &mut out);
        for ((&a, &b), &got) in u1.iter().zip(u2).zip(&out) {
            let want = standard_normal_pair(a, b).0 as f32;
            assert_eq!(got.to_bits(), want.to_bits(), "u1 = {a:e}, u2 = {b:e}");
        }
    }

    #[test]
    fn batched_normals_match_the_scalar_transform_on_an_edge_grid() {
        let mut u1 = vec![f64::EPSILON, 1.0f64.next_down(), f64::MIN_POSITIVE];
        for k in 0..=1022 {
            let power = 0.5f64.powi(k);
            u1.push(power);
            let root = std::f64::consts::SQRT_2 * power;
            if root < 1.0 {
                u1.extend([root.next_down(), root, root.next_up()]);
            }
        }
        let mut u2 = vec![0.0, 1.0f64.next_down()];
        for k in 0..=8 {
            let mut x = k as f64 / 8.0;
            let mut y = x;
            for _ in 0..2 {
                x = x.next_down();
                y = y.next_up();
                u2.extend([x, y]);
            }
            u2.push(k as f64 / 8.0);
        }
        let (a, b): (Vec<f64>, Vec<f64>) = u1
            .iter()
            .flat_map(|&a| u2.iter().map(move |&b| (a, b)))
            .unzip();
        assert_matches_scalar(&a, &b);
    }

    #[test]
    fn batched_normals_match_the_scalar_transform_on_drawn_uniforms() {
        let mut rng = StdRng::seed_from_u64(3);
        let (u1, u2): (Vec<f64>, Vec<f64>) = (0..100_000)
            .map(|_| (rng.gen_range(f64::EPSILON..1.0), rng.gen_range(0.0..1.0)))
            .unzip();
        assert_matches_scalar(&u1, &u2);
    }

    #[test]
    fn candidates_near_an_f32_rounding_boundary_are_recomputed() {
        // Halfway between 1.5 and the next f32 up, and one f64 either side:
        // every one of them is within the bound of the midpoint.
        let midpoint = (1.5 + f64::from(1.5f32.next_up())) / 2.0;
        for r in [midpoint.next_down(), midpoint, midpoint.next_up()] {
            assert!(checked_f32(r).is_nan(), "{r:e} kept");
        }
        // Past the bound on either side, the rounding is certain.
        let margin = 2.0 * midpoint * BOX_MULLER_RELATIVE_ERROR;
        assert_eq!(checked_f32(midpoint - margin), 1.5);
        assert_eq!(checked_f32(midpoint + margin), 1.5f32.next_up());
        assert_eq!(checked_f32(-1.5), -1.5);
        // Zero's sign is not fixed by the bound, and NaN is no candidate.
        for r in [0.0, -0.0, f64::NAN] {
            assert!(checked_f32(r).is_nan(), "{r:e} kept");
        }
    }

    #[test]
    fn inputs_outside_the_domain_take_the_scalar_path() {
        for (u1, u2) in [
            (0.5, -f64::MIN_POSITIVE),
            (0.5, 1.0),
            (0.5, -1e-300),
            (0.5, f64::NAN),
        ] {
            assert!(box_muller_candidate(u1, u2).is_nan(), "({u1:e}, {u2:e})");
            assert_matches_scalar(&[u1], &[u2]);
        }
        // `u1 = 1` is in the domain, but its zero radius leaves the sign of
        // the result to the cosine: recomputed.
        assert_matches_scalar(&[1.0, 1.0], &[0.25, 0.75]);
        for u1 in [0.0, f64::MIN_POSITIVE / 2.0, 1.0f64.next_up(), f64::NAN] {
            assert!(box_muller_candidate(u1, 0.3).is_nan(), "u1 = {u1:e}");
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the domain is a debug assertion")]
    #[should_panic(expected = "u1 must be normal and in (0, 1]")]
    fn a_subnormal_u1_is_refused() {
        let mut out = [0.0f32];
        standard_normals_f32(&[f64::MIN_POSITIVE / 2.0], &[0.3], &mut out);
    }

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
