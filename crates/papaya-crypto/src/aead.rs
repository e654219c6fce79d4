//! Authenticated encryption (encrypt-then-MAC: ChaCha20 + HMAC-SHA-256).
//!
//! Step 4 of the PAPAYA secure-aggregation protocol (Figure 16) requires the
//! client to send `Enc_k(seed)` to the TSA where `Enc` "employs standard
//! techniques like MAC and sequential number to detect any tampered
//! encryption".  [`seal`]/[`open`] implement exactly that: the message is
//! encrypted with ChaCha20 under a key derived from the shared secret and a
//! per-message nonce, and authenticated (together with the nonce and an
//! associated-data transcript) by HMAC-SHA-256.

use crate::chacha20::ChaCha20;
use crate::dh::SharedSecret;
use crate::hmac::{derive_key, hmac_sha256, verify_tag};

/// A 32-byte symmetric key for the AEAD, typically a DH shared secret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AeadKey {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
}

/// Errors returned when opening a sealed message fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AeadError {
    /// The ciphertext is too short to contain a nonce and tag.
    Truncated,
    /// The authentication tag did not verify; the message was tampered with
    /// or the key is wrong.
    TagMismatch,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::Truncated => write!(f, "ciphertext shorter than nonce and tag"),
            AeadError::TagMismatch => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

const NONCE_LEN: usize = 12;
const TAG_LEN: usize = 32;

impl AeadKey {
    /// Derives an AEAD key pair (encryption + MAC subkeys) from a master
    /// secret such as a Diffie–Hellman shared secret.
    pub fn from_shared_secret(secret: &SharedSecret) -> Self {
        AeadKey {
            enc_key: derive_key(secret.as_bytes(), b"papaya/aead/enc"),
            mac_key: derive_key(secret.as_bytes(), b"papaya/aead/mac"),
        }
    }
}

/// Encrypts and authenticates `plaintext`.
///
/// `nonce` must be unique per key (the secure-aggregation protocol uses the
/// client's message sequence number).  `associated_data` is authenticated but
/// not encrypted.  Returns `nonce || ciphertext || tag`.
pub fn seal(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    associated_data: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut ciphertext = plaintext.to_vec();
    let cipher = ChaCha20::new(&key.enc_key, nonce, 1);
    cipher.apply_keystream(&mut ciphertext);

    let mut out = Vec::with_capacity(NONCE_LEN + ciphertext.len() + TAG_LEN);
    out.extend_from_slice(nonce);
    out.extend_from_slice(&ciphertext);

    let tag = compute_tag(key, nonce, associated_data, &ciphertext);
    out.extend_from_slice(&tag);
    out
}

/// Verifies and decrypts a message produced by [`seal`].
///
/// # Errors
///
/// Returns [`AeadError::Truncated`] if the buffer is too small and
/// [`AeadError::TagMismatch`] if authentication fails (wrong key, wrong
/// associated data, or tampering).
pub fn open(key: &AeadKey, associated_data: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
    if sealed.len() < NONCE_LEN + TAG_LEN {
        return Err(AeadError::Truncated);
    }
    let (nonce_bytes, rest) = sealed.split_at(NONCE_LEN);
    let (ciphertext, tag_bytes) = rest.split_at(rest.len() - TAG_LEN);
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(nonce_bytes);
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(tag_bytes);

    let expected = compute_tag(key, &nonce, associated_data, ciphertext);
    if !verify_tag(&expected, &tag) {
        return Err(AeadError::TagMismatch);
    }
    let mut plaintext = ciphertext.to_vec();
    let cipher = ChaCha20::new(&key.enc_key, &nonce, 1);
    cipher.apply_keystream(&mut plaintext);
    Ok(plaintext)
}

fn compute_tag(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    associated_data: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    // Unambiguous transcript: len(ad) || ad || nonce || ciphertext.
    let mut transcript =
        Vec::with_capacity(8 + associated_data.len() + NONCE_LEN + ciphertext.len());
    transcript.extend_from_slice(&(associated_data.len() as u64).to_be_bytes());
    transcript.extend_from_slice(associated_data);
    transcript.extend_from_slice(nonce);
    transcript.extend_from_slice(ciphertext);
    hmac_sha256(&key.mac_key, &transcript)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::from_shared_secret(&SharedSecret::from([7u8; 32]))
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key();
        let sealed = seal(&k, &[1u8; 12], b"ad", b"the seed");
        let opened = open(&k, b"ad", &sealed).unwrap();
        assert_eq!(opened, b"the seed");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let k = key();
        let sealed = seal(&k, &[0u8; 12], b"", b"");
        assert_eq!(open(&k, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key();
        let mut sealed = seal(&k, &[1u8; 12], b"", b"secret seed material");
        sealed[NONCE_LEN + 2] ^= 0x01;
        assert_eq!(open(&k, b"", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key();
        let mut sealed = seal(&k, &[1u8; 12], b"", b"secret");
        sealed[0] ^= 0x80;
        assert_eq!(open(&k, b"", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_associated_data_rejected() {
        let k = key();
        let sealed = seal(&k, &[1u8; 12], b"client-7", b"secret");
        assert_eq!(open(&k, b"client-8", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_key_rejected() {
        let k = key();
        let other = AeadKey::from_shared_secret(&SharedSecret::from([8u8; 32]));
        let sealed = seal(&k, &[1u8; 12], b"", b"secret");
        assert_eq!(open(&other, b"", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn truncated_rejected() {
        let k = key();
        assert_eq!(open(&k, b"", &[0u8; 10]), Err(AeadError::Truncated));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let k = key();
        let sealed = seal(&k, &[9u8; 12], b"", b"aaaaaaaaaaaaaaaa");
        assert_ne!(&sealed[NONCE_LEN..NONCE_LEN + 16], b"aaaaaaaaaaaaaaaa");
    }
}
