//! Differential tests for the division-free group kernels.
//!
//! `GroupVec` arithmetic, mask expansion and fixed-point encoding run
//! without a hardware divide on their hot paths.  Each is checked here
//! against the arithmetic it replaces, spelled out with `%` on wide integers
//! and byte-wise keystream reads, over random moduli on both sides of
//! `2^63`, powers of two and not; a one-bit drift in a kernel fails its
//! property.

use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_secagg::fixed_point::FixedPointCodec;
use papaya_secagg::group::{GroupParams, GroupVec};
use papaya_secagg::mask::{expand_mask, expand_mask_into};
use proptest::prelude::*;

/// A modulus from a random draw: the draw itself (any size, almost never a
/// power of two), the power of two at its bit length, or one past `2^63`.
fn modulus(raw: u64, shape: u8) -> u64 {
    match shape % 3 {
        0 => raw.max(2),
        1 => 1u64 << (1 + raw % 63),
        _ => (1u64 << 63) + 1 + raw % (1 << 62),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reduced add and sub, scalar and vector, in place and not, agree with
    /// 128-bit arithmetic.
    #[test]
    fn group_ops_match_wide_arithmetic(
        raw in any::<u64>(),
        shape in any::<u8>(),
        a in proptest::collection::vec(any::<u64>(), 1..24),
        b in proptest::collection::vec(any::<u64>(), 24),
    ) {
        let n = modulus(raw, shape);
        let params = GroupParams::new(n);
        let b = &b[..a.len()];
        let wide_add = |x: u64, y: u64| ((x % n) as u128 + (y % n) as u128) % n as u128;
        let wide_sub = |x: u64, y: u64| (n as u128 + (x % n) as u128 - (y % n) as u128) % n as u128;
        let va = GroupVec::from_values(params, a.clone());
        let vb = GroupVec::from_values(params, b.to_vec());
        let sum = va.add(&vb);
        let diff = va.sub(&vb);
        let mut sum_in_place = va.clone();
        sum_in_place.add_assign(&vb);
        let mut sum_of_slice = va.clone();
        sum_of_slice.add_assign_slice(vb.values());
        let mut diff_in_place = va.clone();
        diff_in_place.sub_assign(&vb);
        for i in 0..a.len() {
            prop_assert_eq!(va.values()[i], a[i] % n);
            prop_assert_eq!(params.reduce(a[i]), a[i] % n);
            prop_assert_eq!(params.add(a[i], b[i]) as u128, wide_add(a[i], b[i]), "n = {}", n);
            prop_assert_eq!(params.sub(a[i], b[i]) as u128, wide_sub(a[i], b[i]), "n = {}", n);
            prop_assert_eq!(sum.values()[i] as u128, wide_add(a[i], b[i]), "n = {}", n);
            prop_assert_eq!(diff.values()[i] as u128, wide_sub(a[i], b[i]), "n = {}", n);
        }
        prop_assert_eq!(&sum_in_place, &sum);
        prop_assert_eq!(&sum_of_slice, &sum);
        prop_assert_eq!(&diff_in_place, &diff);
    }

    /// Mask expansion is the stream of rejection-sampled 64-bit draws, read
    /// here a byte at a time and reduced with `%`.
    #[test]
    fn mask_expansion_matches_bytewise_draws(
        seed in any::<[u8; 16]>(),
        raw in any::<u64>(),
        shape in any::<u8>(),
        len in 0usize..150,
    ) {
        let n = modulus(raw, shape);
        let params = GroupParams::new(n);
        let mut rng = ChaCha20Rng::from_seed16(seed);
        let zone = u64::MAX - (u64::MAX % n);
        let expected: Vec<u64> = (0..len)
            .map(|_| loop {
                let v = u64::from_le_bytes(core::array::from_fn(|_| rng.next_byte()));
                if v < zone {
                    break v % n;
                }
            })
            .collect();
        let mask = expand_mask(&seed, params, len);
        prop_assert_eq!(mask.values(), expected.as_slice(), "n = {}", n);
        let mut scratch = vec![7u64; 3];
        expand_mask_into(&seed, params, len, &mut scratch);
        prop_assert_eq!(scratch, expected);
    }

    /// Encoding lands in the group without a reduction: it equals the
    /// formula that reduced twice, for any modulus and any input.
    #[test]
    fn encoding_matches_the_reducing_formula(
        raw in any::<u64>(),
        shape in any::<u8>(),
        scale_pow in 0u32..24,
        values in proptest::collection::vec(any::<f32>(), 1..16),
        huge in any::<bool>(),
    ) {
        let n = modulus(raw, shape);
        let scale = (1u64 << scale_pow) as f64;
        let codec = FixedPointCodec::new(GroupParams::new(n), scale);
        let values: Vec<f32> = values.iter().map(|&v| if huge { v * 1e30 } else { v }).collect();
        let reducing = |v: f32| {
            let half = (n / 2) as f64;
            let int = (v as f64 * scale).round().clamp(-half, half - 1.0) as i64;
            if int >= 0 {
                int as u64 % n
            } else {
                (n - (int.unsigned_abs() % n)) % n
            }
        };
        let encoded = codec.encode_vec(&values);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(codec.encode_value(v), reducing(v), "n = {}, v = {}", n, v);
            prop_assert_eq!(encoded.values()[i], reducing(v));
        }
    }
}
