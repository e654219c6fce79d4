//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used to authenticate encrypted seeds sent to the Trusted Secure Aggregator
//! and to produce simulated attestation signatures (the "hardware key" of the
//! simulated enclave signs quotes with HMAC).

use crate::sha256::Sha256;
use std::fmt;

const BLOCK_SIZE: usize = 64;

/// An HMAC-SHA256 key with both pad blocks already absorbed: the SHA-256
/// chaining values after `key ^ ipad` and after `key ^ opad`.
///
/// Every MAC under one key starts from these two states, so a caller that
/// MACs many short messages under a long-lived key (a session's ratchet)
/// pays two compressions a message instead of four.
/// [`hmac_sha256`] is `HmacKey::new(key).mac(message)`.
/// The states are as secret as the key, so `Debug` prints neither.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Absorbs the key's two pad blocks.  Keys longer than the SHA-256
    /// block size are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let digest = crate::sha256::sha256(key);
            key_block[..32].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad_state = |pad: u8| {
            let mut hasher = Sha256::new();
            hasher.update(&key_block.map(|b| b ^ pad));
            hasher.chaining_value()
        };
        HmacKey {
            inner: pad_state(0x36),
            outer: pad_state(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::after_one_block(self.inner);
        inner.update(message);
        let mut outer = Sha256::after_one_block(self.outer);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are first hashed, per RFC 2104.
///
/// # Example
///
/// ```
/// let tag = papaya_crypto::hmac::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-shape comparison of two MAC tags.
///
/// Returns `true` when the tags are equal.  The comparison always inspects
/// every byte so the timing does not reveal the first mismatching position.
pub fn verify_tag(expected: &[u8; 32], actual: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for i in 0..32 {
        diff |= expected[i] ^ actual[i];
    }
    diff == 0
}

/// HKDF-style key derivation: `derive_key(secret, info)` returns a 32-byte
/// key bound to the given context string.
///
/// This is HKDF-Expand with a single output block, using the secret directly
/// as the PRK (the secrets we derive from are already uniform DH outputs run
/// through SHA-256).
pub(crate) fn derive_key(secret: &[u8], info: &[u8]) -> [u8; 32] {
    let mut message = Vec::with_capacity(info.len() + 1);
    message.extend_from_slice(info);
    message.push(0x01);
    hmac_sha256(secret, &message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_state_reproduces_the_rfc4231_vectors() {
        // One absorbed key MACs any number of messages; each tag is the
        // RFC's, whatever was MACed under the key before it.
        let long_key = [0xaau8; 131];
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, message, expected) in cases {
            let state = HmacKey::new(key);
            let _ = state.mac(b"an unrelated message first");
            assert_eq!(hex(&state.mac(message)), expected);
            assert_eq!(hmac_sha256(key, message), state.mac(message));
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let key = HmacKey::new(&[0x0b; 20]);
        assert_eq!(format!("{key:?}"), "HmacKey { .. }");
    }

    #[test]
    fn verify_tag_rejects_mismatch() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        b[31] ^= 1;
        assert!(verify_tag(&a, &a));
        assert!(!verify_tag(&a, &b));
    }

    #[test]
    fn derive_key_is_context_separated() {
        let secret = [9u8; 32];
        let k1 = derive_key(&secret, b"papaya/seed-encryption");
        let k2 = derive_key(&secret, b"papaya/attestation");
        assert_ne!(k1, k2);
        // Deterministic.
        assert_eq!(k1, derive_key(&secret, b"papaya/seed-encryption"));
    }
}
