//! Protocol configuration and wire messages.

use crate::attestation::{params_hash, AttestationQuote, TrustedBinary};
use crate::fixed_point::FixedPointCodec;
use crate::group::{GroupParams, GroupVec};
use papaya_crypto::dh::{DhGroup, DhPublicKey};

/// Static configuration of a secure-aggregation deployment: the finite group
/// and fixed-point scale, the update vector length, the unmasking threshold
/// `t`, the Diffie–Hellman group, and the trusted binary.
#[derive(Clone, Debug)]
pub struct SecAggConfig {
    /// Length of the flattened model-update vector.
    pub vector_len: usize,
    /// Minimum number of clients that must contribute before the TSA releases
    /// the unmask (the ideal functionality's `t`).
    pub threshold: usize,
    /// Fixed-point codec (group modulus + scale).
    pub codec: FixedPointCodec,
    /// Diffie–Hellman group for the client↔TSA channels.
    pub dh_group: DhGroup,
    /// The trusted binary expected to run inside the enclave.
    pub(crate) trusted_binary: TrustedBinary,
}

impl SecAggConfig {
    /// Production-flavoured configuration: `Z_{2^32}` fixed point and the
    /// RFC 3526 2048-bit Diffie–Hellman group.
    pub(crate) fn production(vector_len: usize, threshold: usize) -> Self {
        SecAggConfig {
            vector_len,
            threshold,
            codec: FixedPointCodec::default_for_updates(),
            dh_group: DhGroup::rfc3526_2048(),
            trusted_binary: TrustedBinary::new(
                "papaya-tsa-v1",
                b"papaya trusted secure aggregator binary v1".to_vec(),
            ),
        }
    }

    /// Fast configuration for tests and large simulations: same protocol code
    /// path but a small (non-production-strength) DH group.
    pub fn insecure_fast(vector_len: usize, threshold: usize) -> Self {
        SecAggConfig {
            dh_group: DhGroup::test_group_256(),
            ..Self::production(vector_len, threshold)
        }
    }

    /// The group parameters of the masking group.
    pub fn group_params(&self) -> GroupParams {
        self.codec.params()
    }

    /// Hash of the public parameters, bound into attestation quotes.
    pub(crate) fn params_hash(&self) -> [u8; 32] {
        params_hash(
            self.group_params().modulus(),
            self.vector_len,
            self.threshold,
        )
    }
}

/// A Diffie–Hellman initial message prepared by the TSA, forwarded to a
/// client by the server together with its attestation quote.
#[derive(Clone, Debug)]
pub struct KeyExchangeInitialMessage {
    /// Index of this initial message (each may be completed at most once).
    pub index: usize,
    /// The TSA's ephemeral public key for this exchange.
    pub(crate) tsa_public: DhPublicKey,
    /// Quote binding the binary, the parameters, and this public key.
    pub(crate) quote: AttestationQuote,
}

/// The part of a client's upload that is forwarded into the TSA: the key
/// exchange completion and the encrypted mask seed.
#[derive(Clone, Debug)]
pub struct CompletingMessage {
    /// Index of the initial message being completed.
    pub index: usize,
    /// The client's ephemeral public key.
    pub(crate) client_public: DhPublicKey,
    /// The AEAD-sealed 16-byte mask seed.
    pub encrypted_seed: Vec<u8>,
}

impl CompletingMessage {
    /// Serialized size in bytes, used for host→TEE boundary accounting.
    pub(crate) fn byte_len(&self) -> usize {
        8 + DhPublicKey::BYTE_LEN + self.encrypted_seed.len()
    }
}

/// A client's full upload: the masked update (stays on the untrusted host)
/// and the completing message (crosses into the TSA).
#[derive(Clone, Debug)]
pub struct ClientUploadMessage {
    /// The fixed-point-encoded, one-time-pad-masked model update.
    pub masked_update: GroupVec,
    /// Key-exchange completion plus encrypted seed for the TSA.
    pub completing: CompletingMessage,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_hash_changes_with_threshold() {
        let a = SecAggConfig::insecure_fast(10, 3);
        let b = SecAggConfig::insecure_fast(10, 4);
        assert_ne!(a.params_hash(), b.params_hash());
    }

    #[test]
    fn production_and_fast_differ_only_in_group() {
        let a = SecAggConfig::production(10, 3);
        let b = SecAggConfig::insecure_fast(10, 3);
        assert_eq!(a.vector_len, b.vector_len);
        assert_eq!(a.codec, b.codec);
        assert_ne!(a.dh_group.name(), b.dh_group.name());
    }

    #[test]
    fn completing_message_byte_len_counts_components() {
        let config = SecAggConfig::insecure_fast(4, 2);
        let mut rng = papaya_crypto::chacha20::ChaCha20Rng::from_seed([1u8; 32]);
        let key = papaya_crypto::dh::DhPrivateKey::generate(&config.dh_group, &mut rng);
        let msg = CompletingMessage {
            index: 3,
            client_public: key.public_key(),
            encrypted_seed: vec![0u8; 60],
        };
        assert_eq!(msg.byte_len(), 8 + 256 + 60);
    }
}
