//! Property-based tests for the cryptographic substrate.

use papaya_crypto::aead::{open, seal, AeadKey};
use papaya_crypto::bignum::{Montgomery, U256};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::dh::{DhGroup, DhPrivateKey};
use papaya_crypto::hmac::{hmac_sha256, HmacKey};
use papaya_crypto::sha256::sha256;
use proptest::prelude::*;

/// `next_u64` spelled out a byte at a time: the definition the word-wide
/// reads have to reproduce.
fn bytewise_u64(rng: &mut ChaCha20Rng) -> u64 {
    u64::from_le_bytes(core::array::from_fn(|_| rng.next_byte()))
}

/// `next_below` on byte-wise draws, with the reduction always a `%`.
fn bytewise_below(rng: &mut ChaCha20Rng, bound: u64) -> u64 {
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = bytewise_u64(rng);
        if v < zone {
            return v % bound;
        }
    }
}

/// HMAC-SHA256 straight from RFC 2104, on one-shot hashes of concatenated
/// buffers: no shared state with [`HmacKey`].
fn hmac_from_the_definition(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(message);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

proptest! {
    /// Addition and subtraction are exact inverses whenever no overflow
    /// occurs (checked against 128-bit reference arithmetic).
    #[test]
    fn bignum_add_sub_match_u128(a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()) {
        let x = U256::from_limbs([a, b, 0, 0]);
        let y = U256::from_limbs([c, d, 0, 0]);
        let (sum, carry) = x.overflowing_add(&y);
        prop_assert!(!carry);
        let (back, borrow) = sum.overflowing_sub(&y);
        prop_assert!(!borrow);
        prop_assert_eq!(back, x);
        // Low 128 bits agree with native arithmetic.
        let x128 = (b as u128) << 64 | a as u128;
        let y128 = (d as u128) << 64 | c as u128;
        let (expected, _) = x128.overflowing_add(y128);
        let lo = sum.limbs()[0] as u128 | (sum.limbs()[1] as u128) << 64;
        prop_assert_eq!(lo, expected);
    }

    /// Montgomery modular multiplication agrees with 128-bit reference
    /// arithmetic for random odd 64-bit moduli.
    #[test]
    fn montgomery_mul_matches_reference(a in any::<u64>(), b in any::<u64>(), m in 3u64..u64::MAX) {
        let modulus = m | 1; // force odd
        let ctx = Montgomery::new(U256::from_u64(modulus));
        let got = ctx.mul_mod(&U256::from_u64(a % modulus), &U256::from_u64(b % modulus));
        let expected = ((a % modulus) as u128 * (b % modulus) as u128 % modulus as u128) as u64;
        prop_assert_eq!(got, U256::from_u64(expected));
    }

    /// Modular exponentiation satisfies the homomorphism
    /// `g^(x) * g^(y) = g^(x+y) (mod p)` for a prime modulus.
    #[test]
    fn pow_mod_is_homomorphic(x in 0u64..1_000_000, y in 0u64..1_000_000) {
        let p = U256::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let g = U256::from_u64(5);
        let gx = ctx.pow_mod(&g, &U256::from_u64(x));
        let gy = ctx.pow_mod(&g, &U256::from_u64(y));
        let gxy = ctx.pow_mod(&g, &U256::from_u64(x + y));
        prop_assert_eq!(ctx.mul_mod(&gx, &gy), gxy);
    }

    /// Big-endian byte serialization of bignums round-trips.
    #[test]
    fn bignum_byte_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let v = U256::from_be_bytes(&bytes);
        let full = v.to_be_bytes();
        prop_assert_eq!(U256::from_be_bytes(&full), v);
    }

    /// AEAD seal/open round-trips and rejects any single-byte tampering.
    #[test]
    fn aead_roundtrip_and_tamper_detection(
        secret in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        ad in proptest::collection::vec(any::<u8>(), 0..32),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flip in any::<(usize, u8)>(),
    ) {
        let key = AeadKey::from_shared_secret(&secret);
        let sealed = seal(&key, &nonce, &ad, &payload);
        prop_assert_eq!(open(&key, &ad, &sealed).unwrap(), payload);
        let mut tampered = sealed.clone();
        let idx = flip.0 % tampered.len();
        let mask = if flip.1 == 0 { 1 } else { flip.1 };
        tampered[idx] ^= mask;
        prop_assert!(open(&key, &ad, &tampered).is_err());
    }

    /// HMAC is deterministic and key-separated.
    #[test]
    fn hmac_deterministic_and_key_separated(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(hmac_sha256(&k1, &msg), hmac_sha256(&k1, &msg));
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    /// An HMAC key state gives the tag of the RFC 2104 definition for keys
    /// on both sides of the block size, and is not consumed by use.
    #[test]
    fn hmac_key_state_matches_the_definition(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        first in proptest::collection::vec(any::<u8>(), 0..150),
        second in proptest::collection::vec(any::<u8>(), 0..150),
    ) {
        let state = HmacKey::new(&key);
        prop_assert_eq!(state.mac(&first), hmac_from_the_definition(&key, &first));
        prop_assert_eq!(state.mac(&second), hmac_from_the_definition(&key, &second));
        prop_assert_eq!(hmac_sha256(&key, &first), hmac_from_the_definition(&key, &first));
    }

    /// Word-wide keystream reads equal byte-wise reads from every offset in
    /// a block, so every way a word can sit on or straddle a block boundary
    /// is covered; 4- and 8-byte reads interleave.
    #[test]
    fn word_reads_match_bytewise_reads_from_every_offset(seed in any::<[u8; 32]>()) {
        for offset in 0..64 {
            let mut words = ChaCha20Rng::from_seed(seed);
            let mut bytes = ChaCha20Rng::from_seed(seed);
            for _ in 0..offset {
                prop_assert_eq!(words.next_byte(), bytes.next_byte());
            }
            for draw in 0..40 {
                if draw % 5 == 4 {
                    let expected = u32::from_le_bytes(core::array::from_fn(|_| bytes.next_byte()));
                    prop_assert_eq!(words.next_u32(), expected, "offset {}", offset);
                } else {
                    prop_assert_eq!(words.next_u64(), bytewise_u64(&mut bytes), "offset {}", offset);
                }
            }
        }
    }

    /// The bulk fill draws the stream of byte-wise `next_below` calls from
    /// every offset in a block: for two bounds that reject half of all draws
    /// (`2^63 + 1`, and the power of two `2^63`, which is reduced by mask
    /// but must reject all the same), for the simulator's `2^40` and for a
    /// small odd bound.
    #[test]
    fn fill_below_matches_bytewise_rejection_sampling(seed in any::<[u8; 32]>(), odd in 3u64..1_000_000) {
        for bound in [(1u64 << 63) + 1, 1 << 63, 1 << 40, odd | 1] {
            for offset in 0..64 {
                let mut bulk = ChaCha20Rng::from_seed(seed);
                let mut bytes = ChaCha20Rng::from_seed(seed);
                for _ in 0..offset {
                    bulk.next_byte();
                    bytes.next_byte();
                }
                let mut filled = [0u64; 20];
                bulk.fill_below(bound, &mut filled);
                for (i, &got) in filled.iter().enumerate() {
                    prop_assert_eq!(got, bytewise_below(&mut bytes, bound), "bound {} offset {} draw {}", bound, offset, i);
                }
                // Both generators stand at the same point of the stream.
                prop_assert_eq!(bulk.next_below(bound), bytewise_below(&mut bytes, bound));
                prop_assert_eq!(bulk.next_byte(), bytes.next_byte());
            }
        }
    }

    /// ChaCha20 keystreams from different seeds differ, and `next_below`
    /// respects its bound.
    #[test]
    fn chacha_streams_and_bounds(seed in any::<[u8; 32]>(), bound in 1u64..1_000_000) {
        let mut rng = ChaCha20Rng::from_seed(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Diffie–Hellman key agreement holds for arbitrary RNG seeds in the
    /// fast test group.
    #[test]
    fn dh_agreement_for_random_keys(seed in any::<[u8; 32]>()) {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed(seed);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        prop_assert_eq!(a.shared_secret(&b.public_key()), b.shared_secret(&a.public_key()));
    }
}
