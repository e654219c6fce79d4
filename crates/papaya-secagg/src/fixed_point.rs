//! Fixed-point conversion between real-valued model updates and finite-group
//! elements (Appendix D).
//!
//! A real number `a` is scaled by `c`, rounded to the nearest integer, and
//! mapped into `Z_n` with the signed range `[-⌊n/2⌋, ⌈n/2⌉)`.  Plain integer
//! addition and group addition agree as long as the aggregated sum stays
//! inside that range, so the parties must choose `c` and `n` with the scale
//! of the aggregate in mind.

use crate::group::{GroupParams, GroupVec};

/// Encoder/decoder between `f32` vectors and group-element vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedPointCodec {
    params: GroupParams,
    scale: f64,
}

impl FixedPointCodec {
    /// Creates a codec for the given group and scaling factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(params: GroupParams, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        FixedPointCodec { params, scale }
    }

    /// A sensible default for model deltas: group `Z_{2^32}` with scale
    /// `2^16`, supporting aggregated magnitudes up to ±32767 with ~1.5e-5
    /// resolution.
    pub fn default_for_updates() -> Self {
        FixedPointCodec::new(GroupParams::z2_32(), 65_536.0)
    }

    /// The underlying group parameters.
    pub fn params(&self) -> GroupParams {
        self.params
    }

    /// The scaling factor `c`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Largest representable magnitude for a (sum of) real value(s).
    pub fn max_magnitude(&self) -> f64 {
        (self.params.modulus() / 2) as f64 / self.scale
    }

    /// Encodes a single real value as a (reduced) group element.
    #[inline]
    pub fn encode_value(&self, v: f32) -> u64 {
        let n = self.params.modulus();
        // The signed range `[-half, half - 1]`, bounds taken in `f64` and
        // converted as the rounded value is: `as` saturates monotonically,
        // so clamping after the conversion equals converting the `f64`
        // clamp, NaN (to 0) included.
        let half = (n / 2) as f64;
        let (low, high) = (-half as i64, (half - 1.0) as i64);
        let int = round_half_away_from_zero(v as f64 * self.scale).clamp(low, high);
        // The clamp keeps `|int|` at or below `n / 2` (as an `f64`, so within
        // rounding of it), which is below `n`: a non-negative `int` is its
        // own encoding and a negative one encodes as `n - |int|`, the
        // wrapping sum `n + int`.  The sign bit, spread into a mask, picks
        // between them with no branch for the sign of a delta to mispredict.
        let encoded = (int as u64).wrapping_add(n & (int >> 63) as u64);
        debug_assert!(encoded < n, "encode_value left the group");
        encoded
    }

    /// Decodes a group element back to a real value, interpreting the upper
    /// half of the group as negative numbers.
    pub fn decode_value(&self, v: u64) -> f32 {
        let n = self.params.modulus();
        let v = self.params.reduce(v);
        let signed = if v >= n.div_ceil(2) {
            v as i64 - n as i64
        } else {
            v as i64
        };
        (signed as f64 / self.scale) as f32
    }

    /// Encodes a slice of reals as a group vector.
    pub fn encode_vec(&self, values: &[f32]) -> GroupVec {
        GroupVec::from_reduced(
            self.params,
            values.iter().map(|&v| self.encode_value(v)).collect(),
        )
    }

    /// Decodes a group vector back to reals.
    ///
    /// # Panics
    ///
    /// Panics if the vector belongs to a different group.
    pub fn decode_vec(&self, vec: &GroupVec) -> Vec<f32> {
        assert_eq!(vec.params(), self.params, "group mismatch");
        vec.values().iter().map(|&v| self.decode_value(v)).collect()
    }
}

/// `s` rounded to the nearest integer, halves away from zero, as an `i64`:
/// `s.round() as i64`, in IEEE basic operations rather than a library
/// call.  Below `2^52` in magnitude the truncation `t` is exact and `s - t`
/// is the exact remainder, so comparing it with `±0.5` decides the step,
/// taken without a branch.  From `2^52` on every `f64` is an integer, and
/// it, like NaN and the infinities, takes the saturating `as` conversion.
#[inline]
fn round_half_away_from_zero(s: f64) -> i64 {
    const ALL_INTEGERS: f64 = (1u64 << 52) as f64;
    if s.abs() < ALL_INTEGERS {
        let t = s as i64;
        let rest = s - t as f64;
        t + i64::from(rest >= 0.5) - i64::from(rest <= -0.5)
    } else {
        s as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`FixedPointCodec::encode_value`] as it was written on
    /// [`f64::round`]: the reference the library-free rounding must match.
    fn encode_with_round(c: &FixedPointCodec, v: f32) -> u64 {
        let n = c.params().modulus();
        let scaled = (v as f64 * c.scale()).round();
        let half = (n / 2) as f64;
        let int = scaled.clamp(-half, half - 1.0) as i64;
        if int >= 0 {
            int as u64
        } else {
            n - int.unsigned_abs()
        }
    }

    /// `±1.0` at scale `|s|` puts exactly `s` into the rounding.
    fn encode_product(n: u64, s: f64) -> (u64, u64) {
        let c = FixedPointCodec::new(GroupParams::new(n), s.abs());
        let v = if s < 0.0 { -1.0 } else { 1.0 };
        (c.encode_value(v), encode_with_round(&c, v))
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        let two_52 = (1u64 << 52) as f64;
        let mut products = vec![
            0.49999999999999994,
            0.5 + f64::EPSILON,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            two_52 - 1.0,
            two_52 - 0.5,
            two_52,
            two_52 + 1.0,
            two_52 * 2.0 + 2.0,
            1e300,
        ];
        // Both clamp edges of `Z_{2^40}`, `±2^39`, and the steps around them.
        let half = (1u64 << 39) as f64;
        products.extend([
            half - 1.5,
            half - 1.0,
            half - 0.5,
            half,
            half + 0.5,
            half + 1.0,
        ]);
        for k in 0..40 {
            products.push(k as f64 + 0.5);
            products.push((1u64 << k) as f64 + 0.5);
            products.push((1u64 << k) as f64 - 0.5);
        }
        for s in products {
            for signed in [s, -s] {
                for n in [1u64 << 40, u64::MAX, 1_000_003] {
                    let (got, want) = encode_product(n, signed);
                    assert_eq!(got, want, "n = {n}, s = {signed:e}");
                }
            }
        }
        // The rounding itself, before the clamp.
        for s in [
            0.49999999999999994,
            -0.49999999999999994,
            2.5,
            -2.5,
            two_52 + 1.0,
            1e19,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(round_half_away_from_zero(s), s.round() as i64, "{s}");
        }
    }

    #[test]
    fn zeros_and_non_finite_values_encode_as_with_f64_round() {
        for c in [
            codec(),
            FixedPointCodec::new(GroupParams::new(1 << 40), 65_536.0),
            FixedPointCodec::new(GroupParams::new(101), 1.0),
        ] {
            for v in [
                0.0f32,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.3,
                0.3,
            ] {
                assert_eq!(c.encode_value(v), encode_with_round(&c, v), "{v}");
            }
            let small = f32::from_bits(1);
            assert_eq!(c.encode_value(small), encode_with_round(&c, small));
            assert_eq!(c.encode_value(-small), encode_with_round(&c, -small));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// A weighted delta, the product the secure upload encodes, at the
        /// default codec and the simulator's `Z_{2^40}` one.
        #[test]
        fn weighted_deltas_encode_as_with_f64_round(
            delta in -4.0f32..4.0,
            weight in 0.0f64..64.0,
            bits in proptest::prelude::any::<u32>(),
        ) {
            for c in [codec(), FixedPointCodec::new(GroupParams::new(1 << 40), 65_536.0)] {
                for v in [delta * weight as f32, f32::from_bits(bits)] {
                    proptest::prop_assert_eq!(c.encode_value(v), encode_with_round(&c, v), "{}", v);
                }
            }
        }
    }

    fn codec() -> FixedPointCodec {
        FixedPointCodec::default_for_updates()
    }

    #[test]
    fn roundtrip_within_resolution() {
        let c = codec();
        for v in [-100.0f32, -1.5, -0.0001, 0.0, 0.0001, 0.5, 3.25, 250.0] {
            let decoded = c.decode_value(c.encode_value(v));
            assert!(
                (decoded - v).abs() <= 1.0 / c.scale() as f32,
                "roundtrip failed for {v}: got {decoded}"
            );
        }
    }

    #[test]
    fn group_addition_matches_real_addition() {
        let c = codec();
        let a = [0.25f32, -1.5, 100.0, -0.125];
        let b = [0.5f32, 2.25, -99.5, 0.375];
        let ea = c.encode_vec(&a);
        let eb = c.encode_vec(&b);
        let sum = c.decode_vec(&ea.add(&eb));
        for i in 0..a.len() {
            assert!(
                (sum[i] - (a[i] + b[i])).abs() < 2.0 / c.scale() as f32,
                "element {i}: {} vs {}",
                sum[i],
                a[i] + b[i]
            );
        }
    }

    #[test]
    fn many_party_sum_is_exact_in_the_group() {
        // Aggregating 100 encoded updates then decoding equals the sum of
        // individually decoded values (integer addition never loses bits).
        let c = codec();
        let params = c.params();
        let mut acc = GroupVec::zeros(params, 1);
        let mut expected = 0.0f64;
        for i in 0..100 {
            let v = (i as f32 - 50.0) * 0.01;
            expected += c.decode_value(c.encode_value(v)) as f64;
            acc.add_assign(&c.encode_vec(&[v]));
        }
        let decoded = c.decode_vec(&acc)[0] as f64;
        assert!((decoded - expected).abs() < 1e-6, "{decoded} vs {expected}");
    }

    #[test]
    fn negative_values_use_upper_half_of_group() {
        let c = codec();
        let encoded = c.encode_value(-1.0);
        assert!(encoded > c.params().modulus() / 2);
        assert!((c.decode_value(encoded) + 1.0).abs() < 1e-4);
    }

    #[test]
    fn values_beyond_range_are_clamped() {
        let c = FixedPointCodec::new(GroupParams::new(1 << 16), 256.0);
        // max magnitude = 2^15 / 256 = 128
        assert!((c.max_magnitude() - 128.0).abs() < 1e-9);
        let encoded = c.encode_value(1e9);
        let decoded = c.decode_value(encoded);
        assert!(decoded <= 128.0 && decoded > 100.0);
    }

    #[test]
    fn small_odd_modulus_roundtrip() {
        let c = FixedPointCodec::new(GroupParams::new(101), 1.0);
        for v in [-50.0f32, -1.0, 0.0, 1.0, 49.0] {
            assert_eq!(c.decode_value(c.encode_value(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = FixedPointCodec::new(GroupParams::z2_32(), 0.0);
    }
}
