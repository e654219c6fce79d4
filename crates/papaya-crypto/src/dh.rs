//! Finite-field Diffie–Hellman key exchange (Appendix A.1 of the paper).
//!
//! The Trusted Secure Aggregator (TSA) prepares a batch of key-exchange
//! *initial messages* in advance; each participating client completes the
//! exchange with a single *completing message* and both sides derive the same
//! shared secret, which then protects the client's mask seed in transit.
//!
//! Two groups are provided:
//!
//! * [`DhGroup::rfc3526_2048`] — the 2048-bit MODP group 14 from RFC 3526,
//!   the realistic configuration;
//! * [`DhGroup::test_group_256`] — a 256-bit prime group used by tests and
//!   large simulations where thousands of exchanges must run quickly.

use crate::bignum::{FixedBase, Montgomery, Uint, U2048};
use crate::chacha20::ChaCha20Rng;
use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::Sha256;
use std::sync::Arc;

/// Width (in 64-bit limbs) of exchanged group elements.
const LIMBS: usize = 32;

/// Private exponents are 256-bit (see [`DhPrivateKey::generate`]); fixed-base
/// tables are sized to cover them.
const EXPONENT_BITS: usize = 256;

/// A Diffie–Hellman group: a prime modulus and a generator.
///
/// Carries a fixed-base window table for the generator (shared across
/// clones), so key generation — always an exponentiation of the same base —
/// skips every squaring.
#[derive(Clone, Debug)]
pub struct DhGroup {
    ctx: Arc<Montgomery<LIMBS>>,
    /// Fixed-base table for the generator, used by every key generation.
    gen_table: Arc<FixedBase<LIMBS>>,
    /// Human-readable group label, included in key derivation transcripts.
    name: &'static str,
}

/// A party's public key (the group element `g^x mod p`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhPublicKey {
    element: U2048,
}

/// A party's private exponent.
#[derive(Clone, Debug)]
pub struct DhPrivateKey {
    group: DhGroup,
    exponent: Uint<4>,
    public: DhPublicKey,
}

/// The 32-byte shared secret derived from a completed exchange.
///
/// Key material, handled as such: no `Debug` (a secret cannot reach a log
/// line), no `Clone` or `Copy` (each copy is one made on purpose, through
/// the byte array it was built from), and `==` compares in constant time.
///
/// ```
/// use papaya_crypto::chacha20::ChaCha20Rng;
/// use papaya_crypto::dh::{DhGroup, DhPrivateKey};
///
/// let group = DhGroup::test_group_256();
/// let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
/// let (a, b) = (DhPrivateKey::generate(&group, &mut rng), DhPrivateKey::generate(&group, &mut rng));
/// assert!(a.shared_secret(&b.public_key()) == b.shared_secret(&a.public_key()));
/// ```
///
/// ```compile_fail
/// use papaya_crypto::chacha20::ChaCha20Rng;
/// use papaya_crypto::dh::{DhGroup, DhPrivateKey};
///
/// let group = DhGroup::test_group_256();
/// let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
/// let (a, b) = (DhPrivateKey::generate(&group, &mut rng), DhPrivateKey::generate(&group, &mut rng));
/// println!("{:?}", a.shared_secret(&b.public_key()));
/// ```
pub struct SharedSecret([u8; 32]);

impl SharedSecret {
    /// The secret's bytes, for key derivation inside this crate.
    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl From<[u8; 32]> for SharedSecret {
    fn from(bytes: [u8; 32]) -> Self {
        SharedSecret(bytes)
    }
}

impl PartialEq for SharedSecret {
    /// Constant time: every byte is compared, whichever differs first.
    fn eq(&self, other: &Self) -> bool {
        verify_tag(&self.0, &other.0)
    }
}

impl Eq for SharedSecret {}

impl From<&SharedSecret> for HmacKey {
    /// The HMAC key that is the secret itself, its pad blocks absorbed.
    fn from(secret: &SharedSecret) -> Self {
        HmacKey::new(&secret.0)
    }
}

impl DhGroup {
    /// The 2048-bit MODP group (group 14) from RFC 3526 with generator 2.
    pub fn rfc3526_2048() -> Self {
        let p = U2048::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
             98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
             9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
             E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
             3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        );
        Self::new(p, U2048::from_u64(2), "rfc3526-modp-2048")
    }

    /// A small 256-bit prime group (the secp256k1 field prime, generator 5).
    ///
    /// Not intended to offer production-grade security; it exists so that
    /// simulations involving thousands of clients can run the full protocol
    /// quickly.  The protocol code paths are identical to the 2048-bit group.
    /// Only the arithmetic differs: the prime is `2^256 − c` with
    /// `c = 2^32 + 977`, a special form the group's [`Montgomery`] context
    /// recognises, so its exponentiations multiply and fold by `c` instead of
    /// running Montgomery reductions, with the same results.
    pub fn test_group_256() -> Self {
        let p = U2048::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        Self::new(p, U2048::from_u64(5), "test-256")
    }

    fn new(p: U2048, generator: U2048, name: &'static str) -> Self {
        let ctx = Arc::new(Montgomery::new(p));
        let gen_table = Arc::new(ctx.precompute_base(&generator, EXPONENT_BITS));
        DhGroup {
            ctx,
            gen_table,
            name,
        }
    }

    /// The group's label (bound into derived keys).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn pow(&self, base: &U2048, exp: &Uint<4>) -> U2048 {
        self.ctx.pow_mod(base, exp)
    }

    /// Builds a fixed-base window table for `key`, for a party that will
    /// complete many exchanges against the same peer key (every client of a
    /// TSA epoch completes against the one epoch key).  Pays for itself
    /// after a handful of [`DhPrivateKey::shared_secret_precomputed`] calls.
    pub fn precompute_public(&self, key: &DhPublicKey) -> DhPrecomputedPublic {
        DhPrecomputedPublic {
            element: key.element,
            table: self.ctx.precompute_base(&key.element, EXPONENT_BITS),
        }
    }
}

/// A peer public key with a fixed-base window table attached; see
/// [`DhGroup::precompute_public`].  The table is tens of KiB: share it by
/// reference (or behind the caller's `Arc`), not by cloning.
#[derive(Clone, Debug)]
pub struct DhPrecomputedPublic {
    element: U2048,
    table: FixedBase<LIMBS>,
}

impl DhPrecomputedPublic {
    /// The public key this table was built from.
    pub fn public_key(&self) -> DhPublicKey {
        DhPublicKey {
            element: self.element,
        }
    }
}

impl DhPublicKey {
    /// Serialized size in bytes: every group element crosses the wire at
    /// the 2048-bit storage width, whatever the group.
    pub const BYTE_LEN: usize = LIMBS * 8;

    /// Serializes the public key to big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_byte_array().to_vec()
    }

    /// [`to_bytes`](DhPublicKey::to_bytes) without the allocation.
    pub fn to_byte_array(&self) -> [u8; Self::BYTE_LEN] {
        let mut out = [0u8; Self::BYTE_LEN];
        self.element.write_be_bytes(&mut out);
        out
    }
}

impl DhPrivateKey {
    /// Generates a fresh private key (256-bit exponent) in the given group.
    pub fn generate(group: &DhGroup, rng: &mut ChaCha20Rng) -> Self {
        let mut limbs = [0u64; 4];
        loop {
            for limb in limbs.iter_mut() {
                *limb = rng.next_u64();
            }
            let exponent = Uint::from_limbs(limbs);
            // Reject trivially weak exponents (0 and 1).
            if exponent.highest_bit().unwrap_or(0) >= 2 {
                // Fixed-base exponentiation: bit-identical to pow(generator,
                // exponent), minus all the squarings.
                let element = group.ctx.pow_mod_fixed(&group.gen_table, &exponent);
                return DhPrivateKey {
                    group: group.clone(),
                    exponent,
                    public: DhPublicKey { element },
                };
            }
        }
    }

    /// Returns this party's public key.
    pub fn public_key(&self) -> DhPublicKey {
        self.public.clone()
    }

    /// Completes the exchange with the peer's public key and derives the
    /// 32-byte shared secret as `SHA-256(group_name || g^{xy})`.
    pub fn shared_secret(&self, peer: &DhPublicKey) -> SharedSecret {
        let shared_element = self.group.pow(&peer.element, &self.exponent);
        self.derive_secret(&shared_element)
    }

    /// Like [`shared_secret`](DhPrivateKey::shared_secret) but against a
    /// peer key with a precomputed fixed-base table — bit-identical output,
    /// no squarings.
    pub fn shared_secret_precomputed(&self, peer: &DhPrecomputedPublic) -> SharedSecret {
        let shared_element = self.group.ctx.pow_mod_fixed(&peer.table, &self.exponent);
        self.derive_secret(&shared_element)
    }

    fn derive_secret(&self, shared_element: &U2048) -> SharedSecret {
        let mut element_bytes = [0u8; DhPublicKey::BYTE_LEN];
        shared_element.write_be_bytes(&mut element_bytes);
        let mut hasher = Sha256::new();
        hasher.update(self.group.name.as_bytes());
        hasher.update(&element_bytes);
        SharedSecret(hasher.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DhPublicKey {
        /// Deserializes a public key from big-endian bytes.
        ///
        /// # Panics
        ///
        /// Panics if `bytes` is longer than 256 bytes.
        fn from_bytes(bytes: &[u8]) -> Self {
            DhPublicKey {
                element: U2048::from_be_bytes(bytes),
            }
        }
    }

    #[test]
    fn exchange_agrees_test_group() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert!(a.shared_secret(&b.public_key()) == b.shared_secret(&a.public_key()));
    }

    #[test]
    fn exchange_agrees_rfc3526() {
        let group = DhGroup::rfc3526_2048();
        let mut rng = ChaCha20Rng::from_seed([2u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert!(a.shared_secret(&b.public_key()) == b.shared_secret(&a.public_key()));
    }

    #[test]
    fn third_party_disagrees() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        let eve = DhPrivateKey::generate(&group, &mut rng);
        assert!(a.shared_secret(&b.public_key()) != eve.shared_secret(&b.public_key()));
    }

    #[test]
    fn precomputed_shared_secret_matches_plain() {
        for group in [DhGroup::test_group_256(), DhGroup::rfc3526_2048()] {
            let mut rng = ChaCha20Rng::from_seed([7u8; 32]);
            let tsa = DhPrivateKey::generate(&group, &mut rng);
            let tsa_pre = group.precompute_public(&tsa.public_key());
            assert_eq!(tsa_pre.public_key(), tsa.public_key());
            for _ in 0..3 {
                let client = DhPrivateKey::generate(&group, &mut rng);
                assert!(
                    client.shared_secret_precomputed(&tsa_pre)
                        == client.shared_secret(&tsa.public_key()),
                    "{}",
                    group.name()
                );
            }
        }
    }

    #[test]
    fn public_key_roundtrip() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([4u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let pk = a.public_key();
        let restored = DhPublicKey::from_bytes(&pk.to_bytes());
        assert_eq!(pk, restored);
    }

    #[test]
    fn different_keypairs_have_different_publics() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([5u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn secret_depends_on_group_label() {
        // Using the same exponents in groups with the same modulus but
        // different labels must yield different derived secrets (domain
        // separation in the transcript hash).
        let g1 = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([6u8; 32]);
        let a = DhPrivateKey::generate(&g1, &mut rng);
        let b = DhPrivateKey::generate(&g1, &mut rng);
        let s = a.shared_secret(&b.public_key());
        assert_ne!(s.as_bytes(), &[0u8; 32]);
    }
}
