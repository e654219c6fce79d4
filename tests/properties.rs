//! Property-based tests over core data structures and protocol invariants.

use papaya_core::aggregator::Aggregator;
use papaya_core::client::ClientUpdate;
use papaya_core::fedbuff::FedBuffAggregator;
use papaya_core::staleness::StalenessWeighting;
use papaya_crypto::merkle::MerkleLog;
use papaya_crypto::sha256::sha256;
use papaya_nn::params::ParamVec;
use papaya_secagg::fixed_point::FixedPointCodec;
use papaya_secagg::group::{GroupParams, GroupVec};
use papaya_secagg::mask::expand_mask;
use proptest::prelude::*;

proptest! {
    /// Fixed-point encode/decode round-trips within one quantum for values in
    /// the representable range (Appendix D).
    #[test]
    fn fixed_point_roundtrip(v in -1_000.0f32..1_000.0f32) {
        let codec = FixedPointCodec::default_for_updates();
        let decoded = codec.decode_value(codec.encode_value(v));
        // One quantum of fixed-point error plus f32 representation error.
        let tolerance = 1.0 / codec.scale() as f32 + v.abs() * f32::EPSILON * 4.0;
        prop_assert!((decoded - v).abs() <= tolerance);
    }

    /// Group addition of encoded values matches real addition (no wrap-around
    /// inside the representable range).
    #[test]
    fn fixed_point_additivity(a in -500.0f32..500.0, b in -500.0f32..500.0) {
        let codec = FixedPointCodec::default_for_updates();
        let sum = codec.decode_value(
            codec.params().add(codec.encode_value(a), codec.encode_value(b)),
        );
        let tolerance = 2.0 / codec.scale() as f32 + (a + b).abs() * f32::EPSILON * 4.0;
        prop_assert!((sum - (a + b)).abs() < tolerance);
    }

    /// Masking then unmasking with the same seed is the identity on group
    /// vectors — the core one-time-pad invariant of AsyncSecAgg.
    #[test]
    fn mask_unmask_identity(values in proptest::collection::vec(0u64..u32::MAX as u64, 1..64), seed in any::<[u8; 16]>()) {
        let params = GroupParams::z2_32();
        let plain = GroupVec::from_values(params, values);
        let mask = expand_mask(&seed, params, plain.len());
        let unmasked = plain.add(&mask).sub(&mask);
        prop_assert_eq!(unmasked, plain);
    }

    /// Group addition is commutative and associative for arbitrary vectors.
    #[test]
    fn group_addition_laws(
        a in proptest::collection::vec(0u64..1_000_000u64, 8),
        b in proptest::collection::vec(0u64..1_000_000u64, 8),
        c in proptest::collection::vec(0u64..1_000_000u64, 8),
        modulus in 2u64..1_000_000u64,
    ) {
        let params = GroupParams::new(modulus);
        let a = GroupVec::from_values(params, a);
        let b = GroupVec::from_values(params, b);
        let c = GroupVec::from_values(params, c);
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    /// Merkle inclusion proofs verify for every leaf of logs of arbitrary
    /// size, and fail for a different record.
    #[test]
    fn merkle_inclusion_sound_and_complete(n in 1usize..40, probe in 0usize..40) {
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(format!("record-{i}").into_bytes());
        }
        let index = probe % n;
        let proof = log.inclusion_proof(index).unwrap();
        let root = log.root();
        let record = format!("record-{index}");
        let genuine = proof.verify(&root, record.as_bytes(), index, n);
        let forged = proof.verify(&root, b"forged record", index, n);
        prop_assert!(genuine);
        prop_assert!(!forged);
    }

    /// Consistency proofs verify for every prefix of an append-only log.
    #[test]
    fn merkle_consistency_for_all_prefixes(n in 2usize..32, old in 1usize..32) {
        let old = 1 + old % (n - 1);
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(format!("record-{i}").into_bytes());
        }
        let proof = log.consistency_proof(old).unwrap();
        prop_assert!(proof.verify(
            &log.root_at(old).unwrap(),
            old,
            &log.root(),
            n
        ));
    }

    /// SHA-256 is deterministic and sensitive to single-bit flips.
    #[test]
    fn sha256_deterministic_and_sensitive(mut data in proptest::collection::vec(any::<u8>(), 1..256), flip in any::<u8>()) {
        let original = sha256(&data);
        prop_assert_eq!(original, sha256(&data));
        let idx = flip as usize % data.len();
        data[idx] ^= 0x01;
        prop_assert_ne!(original, sha256(&data));
    }

    /// ParamVec byte serialization round-trips exactly.
    #[test]
    fn param_vec_bytes_roundtrip(values in proptest::collection::vec(-1.0e6f32..1.0e6, 0..128)) {
        let v = ParamVec::from_vec(values);
        prop_assert_eq!(ParamVec::from_bytes(&v.to_bytes()), v);
    }

    /// Staleness weights are in (0, 1] and non-increasing in staleness.
    #[test]
    fn staleness_weights_bounded_and_monotone(s in 0u64..10_000) {
        for scheme in [
            StalenessWeighting::Constant,
            StalenessWeighting::PolynomialHalf,
            StalenessWeighting::Linear,
            StalenessWeighting::Exponential,
        ] {
            let w = scheme.weight(s);
            prop_assert!(w > 0.0 && w <= 1.0);
            prop_assert!(scheme.weight(s + 1) <= w);
        }
    }

    /// The FedBuff aggregate is a convex combination of the buffered deltas:
    /// each coordinate lies within the min/max of the contributed values.
    #[test]
    fn fedbuff_aggregate_is_convex_combination(
        deltas in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 4), 2..12),
        examples in proptest::collection::vec(1usize..100, 12),
    ) {
        let goal = deltas.len();
        let mut agg = FedBuffAggregator::new(goal, StalenessWeighting::PolynomialHalf);
        for (i, delta) in deltas.iter().enumerate() {
            agg.accumulate(
                ClientUpdate {
                    client_id: i,
                    delta: ParamVec::from_vec(delta.clone()),
                    num_examples: examples[i % examples.len()],
                    start_version: (i % 3) as u64,
                    train_loss: 0.0,
                },
                2,
                i as f64,
            );
        }
        let out = agg.take(0.0).unwrap();
        for j in 0..4 {
            let column: Vec<f32> = deltas.iter().map(|d| d[j]).collect();
            let min = column.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = column.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out.as_slice()[j] >= min - 1e-4 && out.as_slice()[j] <= max + 1e-4);
        }
    }
}
