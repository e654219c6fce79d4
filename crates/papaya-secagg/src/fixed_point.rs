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
    pub fn encode_value(&self, v: f32) -> u64 {
        let n = self.params.modulus();
        let scaled = (v as f64 * self.scale).round();
        let half = (n / 2) as f64;
        let clamped = scaled.clamp(-half, half - 1.0);
        let int = clamped as i64;
        // The clamp keeps `|int|` at or below `n / 2` (as an `f64`, so within
        // rounding of it), which is below `n`: both branches land in
        // `[0, n)` with no reduction.
        let encoded = if int >= 0 {
            int as u64
        } else {
            n - int.unsigned_abs()
        };
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

#[cfg(test)]
mod tests {
    use super::*;

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
