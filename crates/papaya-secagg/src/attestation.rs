//! Simulated remote attestation and the verifiable-log publication
//! (Appendix C).
//!
//! The production system runs the TSA inside an Intel SGX enclave.  Clients
//! verify an *attestation quote* proving (1) the enclave runs the published
//! trusted binary and (2) it was configured with the server-claimed public
//! parameters; and they verify an *inclusion proof* showing the binary is in
//! the append-only verifiable log that auditors watch.
//!
//! The hardware root of trust is simulated with an HMAC "hardware key": only
//! the genuine [`crate::tsa::Tsa`] holds it, so a quote that verifies against
//! the corresponding verifier ([`verify_quote`]) plays the same role as an
//! SGX quote verified against Intel collateral.

use papaya_crypto::hmac::{hmac_sha256, verify_tag};
use papaya_crypto::merkle::{InclusionProof, MerkleLog};
use papaya_crypto::sha256::{sha256, Sha256};

/// The code that runs inside the (simulated) enclave, identified by its
/// measurement hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustedBinary {
    /// Human-readable name/version of the binary.
    pub(crate) name: String,
    /// The binary contents (here: an opaque byte string standing in for the
    /// enclave code).
    pub(crate) code: Vec<u8>,
}

impl TrustedBinary {
    /// Creates a trusted binary record.
    pub(crate) fn new(name: impl Into<String>, code: impl Into<Vec<u8>>) -> Self {
        TrustedBinary {
            name: name.into(),
            code: code.into(),
        }
    }

    /// The measurement hash (what SGX would report as MRENCLAVE).
    pub(crate) fn measurement(&self) -> [u8; 32] {
        sha256(&self.code)
    }

    /// The verifiable-log record for this binary (identity + manifest).
    pub(crate) fn log_record(&self) -> Vec<u8> {
        let mut record = Vec::new();
        record.extend_from_slice(self.name.as_bytes());
        record.push(0);
        record.extend_from_slice(&self.measurement());
        record
    }
}

/// Hash of the secure-aggregation public parameters (group, vector length,
/// threshold), bound into every quote.
pub(crate) fn params_hash(group_modulus: u64, vector_len: usize, threshold: usize) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"papaya/secagg-params");
    h.update(&group_modulus.to_be_bytes());
    h.update(&(vector_len as u64).to_be_bytes());
    h.update(&(threshold as u64).to_be_bytes());
    h.finalize()
}

/// An attestation quote generated by the (simulated) enclave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestationQuote {
    /// Measurement of the running trusted binary.
    pub(crate) binary_measurement: [u8; 32],
    /// Hash of the public protocol parameters the enclave was configured with.
    pub(crate) params_hash: [u8; 32],
    /// Hash of the attached payload (the DH key-exchange initial message).
    pub(crate) payload_hash: [u8; 32],
    /// Signature over the above, produced with the enclave's hardware key.
    pub(crate) signature: [u8; 32],
}

impl AttestationQuote {
    fn transcript(
        binary_measurement: &[u8; 32],
        params_hash: &[u8; 32],
        payload_hash: &[u8; 32],
    ) -> [u8; 24 + 96] {
        let mut t = [0u8; 24 + 96];
        t[..24].copy_from_slice(b"papaya/attestation-quote");
        t[24..56].copy_from_slice(binary_measurement);
        t[56..88].copy_from_slice(params_hash);
        t[88..].copy_from_slice(payload_hash);
        t
    }

    /// Signs a new quote with the hardware key (only the TSA can do this).
    pub(crate) fn sign(
        hardware_key: &[u8; 32],
        binary_measurement: [u8; 32],
        params_hash: [u8; 32],
        payload: &[u8],
    ) -> Self {
        let payload_hash = sha256(payload);
        let transcript = Self::transcript(&binary_measurement, &params_hash, &payload_hash);
        AttestationQuote {
            binary_measurement,
            params_hash,
            payload_hash,
            signature: hmac_sha256(hardware_key, &transcript),
        }
    }
}

/// Everything a client needs to validate the TSA before participating:
/// the published binary measurement, the verifiable-log snapshot, and the
/// inclusion proof for the binary.
#[derive(Clone, Debug)]
pub struct TsaPublication {
    /// The expected measurement of the trusted binary (published with the
    /// open-sourced code).
    pub expected_measurement: [u8; 32],
    /// Hash of the public parameters the server claims to use.
    pub(crate) expected_params_hash: [u8; 32],
    /// Latest verifiable-log root ("snapshot").
    pub(crate) log_root: [u8; 32],
    /// Size of the log at that snapshot.
    pub(crate) log_size: usize,
    /// Index of the trusted binary's record in the log.
    pub(crate) log_index: usize,
    /// The log record contents for the binary.
    pub(crate) log_record: Vec<u8>,
    /// Inclusion proof of the record in the snapshot.
    pub(crate) inclusion_proof: InclusionProof,
    /// Verification key for quotes (stands in for Intel's collateral).
    pub(crate) hardware_key: [u8; 32],
}

/// Errors a client can hit while validating the TSA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestationError {
    /// The quote signature does not verify.
    BadSignature,
    /// The quote reports a binary different from the published measurement.
    WrongBinary,
    /// The quote was generated for different public parameters.
    WrongParams,
    /// The quote does not cover the payload it was attached to.
    PayloadMismatch,
    /// The published binary is not included in the verifiable log snapshot.
    NotInLog,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            AttestationError::BadSignature => "attestation quote signature invalid",
            AttestationError::WrongBinary => "enclave runs an unexpected trusted binary",
            AttestationError::WrongParams => "enclave configured with unexpected parameters",
            AttestationError::PayloadMismatch => "quote does not cover the attached payload",
            AttestationError::NotInLog => "trusted binary not present in the verifiable log",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for AttestationError {}

/// Client-side verification of a quote plus the verifiable-log publication.
///
/// # Errors
///
/// Returns the first [`AttestationError`] encountered.
pub(crate) fn verify_quote(
    publication: &TsaPublication,
    quote: &AttestationQuote,
    payload: &[u8],
) -> Result<(), AttestationError> {
    // 1. The signature must come from genuine "hardware".
    let transcript = AttestationQuote::transcript(
        &quote.binary_measurement,
        &quote.params_hash,
        &quote.payload_hash,
    );
    let expected_sig = hmac_sha256(&publication.hardware_key, &transcript);
    if !verify_tag(&expected_sig, &quote.signature) {
        return Err(AttestationError::BadSignature);
    }
    // 2. The binary must be the published one.
    if quote.binary_measurement != publication.expected_measurement {
        return Err(AttestationError::WrongBinary);
    }
    // 3. The parameters must match the server's claim.
    if quote.params_hash != publication.expected_params_hash {
        return Err(AttestationError::WrongParams);
    }
    // 4. The quote must cover the payload the server attached it to.
    if quote.payload_hash != sha256(payload) {
        return Err(AttestationError::PayloadMismatch);
    }
    // 5. The binary must be recorded in the verifiable log.
    if !publication.inclusion_proof.verify(
        &publication.log_root,
        &publication.log_record,
        publication.log_index,
        publication.log_size,
    ) {
        return Err(AttestationError::NotInLog);
    }
    Ok(())
}

/// Builds the verifiable-log side of a publication for a binary, appending it
/// to `log` if not already present.
pub(crate) fn publish_binary(
    log: &mut MerkleLog,
    binary: &TrustedBinary,
) -> (usize, InclusionProof) {
    let record = binary.log_record();
    let index = (0..log.len())
        .find(|&i| log.get(i) == Some(record.as_slice()))
        .unwrap_or_else(|| log.append(record));
    #[expect(
        clippy::expect_used,
        reason = "the record was found or appended on the line above; an unprovable index is an internal invariant breach"
    )]
    let proof = log
        .inclusion_proof(index)
        .expect("record just appended is provable");
    (index, proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TsaPublication, AttestationQuote, Vec<u8>) {
        let binary = TrustedBinary::new("tsa-v1", b"enclave code v1".to_vec());
        let hardware_key = [0xAAu8; 32];
        let params = params_hash(1 << 32, 10, 3);
        let mut log = MerkleLog::new();
        log.append(b"older binary".to_vec());
        let (index, proof) = publish_binary(&mut log, &binary);
        let payload = b"dh initial message bytes".to_vec();
        let quote = AttestationQuote::sign(&hardware_key, binary.measurement(), params, &payload);
        let publication = TsaPublication {
            expected_measurement: binary.measurement(),
            expected_params_hash: params,
            log_root: log.root(),
            log_size: log.len(),
            log_index: index,
            log_record: binary.log_record(),
            inclusion_proof: proof,
            hardware_key,
        };
        (publication, quote, payload)
    }

    #[test]
    fn valid_quote_verifies() {
        let (publication, quote, payload) = setup();
        assert_eq!(verify_quote(&publication, &quote, &payload), Ok(()));
    }

    #[test]
    fn forged_signature_rejected() {
        let (publication, mut quote, payload) = setup();
        quote.signature[0] ^= 1;
        assert_eq!(
            verify_quote(&publication, &quote, &payload),
            Err(AttestationError::BadSignature)
        );
    }

    #[test]
    fn quote_from_wrong_hardware_key_rejected() {
        let (publication, _, payload) = setup();
        let rogue_quote = AttestationQuote::sign(
            &[0xBBu8; 32],
            publication.expected_measurement,
            publication.expected_params_hash,
            &payload,
        );
        assert_eq!(
            verify_quote(&publication, &rogue_quote, &payload),
            Err(AttestationError::BadSignature)
        );
    }

    #[test]
    fn wrong_binary_rejected() {
        let (publication, _, payload) = setup();
        let other = TrustedBinary::new("evil", b"evil code".to_vec());
        let quote = AttestationQuote::sign(
            &publication.hardware_key,
            other.measurement(),
            publication.expected_params_hash,
            &payload,
        );
        assert_eq!(
            verify_quote(&publication, &quote, &payload),
            Err(AttestationError::WrongBinary)
        );
    }

    #[test]
    fn wrong_params_rejected() {
        let (publication, _, payload) = setup();
        let quote = AttestationQuote::sign(
            &publication.hardware_key,
            publication.expected_measurement,
            params_hash(1 << 32, 10, 1), // threshold lowered by the server
            &payload,
        );
        assert_eq!(
            verify_quote(&publication, &quote, &payload),
            Err(AttestationError::WrongParams)
        );
    }

    #[test]
    fn payload_swap_rejected() {
        let (publication, quote, _) = setup();
        assert_eq!(
            verify_quote(&publication, &quote, b"a different initial message"),
            Err(AttestationError::PayloadMismatch)
        );
    }

    #[test]
    fn missing_log_entry_rejected() {
        let (mut publication, quote, payload) = setup();
        // The server claims a snapshot of a log that never recorded the binary.
        let mut other_log = MerkleLog::new();
        other_log.append(b"unrelated".to_vec());
        publication.log_root = other_log.root();
        publication.log_size = other_log.len();
        assert_eq!(
            verify_quote(&publication, &quote, &payload),
            Err(AttestationError::NotInLog)
        );
    }

    #[test]
    fn publish_binary_is_idempotent() {
        let binary = TrustedBinary::new("tsa-v1", b"code".to_vec());
        let mut log = MerkleLog::new();
        let (i1, _) = publish_binary(&mut log, &binary);
        let (i2, _) = publish_binary(&mut log, &binary);
        assert_eq!(i1, i2);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn params_hash_is_sensitive_to_every_field() {
        let base = params_hash(100, 10, 3);
        assert_ne!(base, params_hash(101, 10, 3));
        assert_ne!(base, params_hash(100, 11, 3));
        assert_ne!(base, params_hash(100, 10, 4));
    }
}
