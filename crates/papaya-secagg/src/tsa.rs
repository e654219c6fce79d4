//! The Trusted Secure Aggregator (the party inside the TEE).
//!
//! The TSA's job per aggregation round: hold the private halves of the
//! pre-generated Diffie–Hellman exchanges, recover each participating
//! client's mask seed, regenerate and sum the masks, and release the
//! aggregated unmask only once at least `t` clients have been processed
//! (Figure 16, steps 1, 6, 7).
//!
//! All traffic in and out of the TSA is metered by a [`BoundaryStats`]
//! counter so Figure 6 can be reproduced.

use crate::attestation::{publish_binary, AttestationQuote, TsaPublication};
use crate::group::GroupVec;
use crate::mask::{expand_mask, expand_mask_into, MaskSeed, SEED_LEN};
use crate::protocol::{CompletingMessage, KeyExchangeInitialMessage, SecAggConfig};
use crate::session::{MaskRef, RatchetKey, SessionInitMessage};
use papaya_crypto::aead::{open, AeadKey};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::dh::{DhPrivateKey, DhPublicKey};
use papaya_crypto::hmac::hmac_sha256;
use papaya_crypto::merkle::MerkleLog;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Counters of data crossing the host↔TEE boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundaryStats {
    /// Bytes transferred into the enclave.
    pub bytes_in: u64,
    /// Bytes transferred out of the enclave.
    pub bytes_out: u64,
    /// Number of messages into the enclave.
    pub(crate) messages_in: u64,
    /// Number of messages out of the enclave.
    pub(crate) messages_out: u64,
}

/// Errors returned by the TSA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TsaError {
    /// The completing message references an initial message that was never
    /// issued.
    UnknownIndex(usize),
    /// The referenced initial message has already been completed; the TSA
    /// processes at most one completion per initial message.
    IndexAlreadyUsed(usize),
    /// The encrypted seed failed to authenticate/decrypt (tampering or wrong
    /// key).
    SeedDecryptionFailed,
    /// The encrypted seed has an unexpected length after decryption.
    MalformedSeed,
    /// Fewer than `threshold` clients have been processed, so the unmask
    /// cannot be released.
    ThresholdNotMet {
        /// Clients processed so far in this round.
        processed: usize,
        /// Required threshold.
        required: usize,
    },
    /// The round was already finalized; the TSA ignores further requests
    /// until a new round is started.
    RoundFinalized,
    /// A batched release referenced a client with no established session in
    /// the current epoch.
    UnknownSession(u64),
    /// A batched release referenced a ratchet counter at or below the
    /// session's monotone floor — a replay or a revoked participation.
    StaleSessionCounter {
        /// The session owner's client id.
        client_id: u64,
        /// The rejected counter.
        counter: u64,
    },
}

impl std::fmt::Display for TsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsaError::UnknownIndex(i) => write!(f, "unknown key-exchange index {i}"),
            TsaError::IndexAlreadyUsed(i) => write!(f, "key-exchange index {i} already completed"),
            TsaError::SeedDecryptionFailed => write!(f, "seed decryption failed"),
            TsaError::MalformedSeed => write!(f, "decrypted seed has unexpected length"),
            TsaError::ThresholdNotMet {
                processed,
                required,
            } => write!(
                f,
                "only {processed} of required {required} clients processed"
            ),
            TsaError::RoundFinalized => write!(f, "aggregation round already finalized"),
            TsaError::UnknownSession(id) => write!(f, "no established session for client {id}"),
            TsaError::StaleSessionCounter { client_id, counter } => write!(
                f,
                "stale ratchet counter {counter} for client {client_id}'s session"
            ),
        }
    }
}

impl std::error::Error for TsaError {}

/// The Trusted Secure Aggregator.
#[derive(Debug)]
pub struct Tsa {
    config: SecAggConfig,
    hardware_key: [u8; 32],
    /// Private halves of issued key exchanges, keyed by index.
    private_keys: BTreeMap<usize, DhPrivateKey>,
    /// Indices whose completion has already been processed (ever).
    used_indices: BTreeSet<usize>,
    next_index: usize,
    /// The verifiable log recording released trusted binaries.
    log: MerkleLog,
    /// Running sum of regenerated masks for the current round.
    mask_sum: GroupVec,
    processed: usize,
    finalized: bool,
    boundary: BoundaryStats,
    /// Session epoch; bumped on every invalidation so cached client state
    /// can never complete against a stale TSA key.
    epoch: u64,
    /// The TSA's private Diffie–Hellman key for the current epoch.
    epoch_key: Option<DhPrivateKey>,
    /// Cached epoch offer (public key + quote), built at most once per epoch.
    epoch_init: Option<SessionInitMessage>,
    /// Established sessions, keyed by client id.
    sessions: BTreeMap<u64, TsaSession>,
    /// Reusable mask-expansion buffer for batched releases.
    scratch: Vec<u64>,
}

/// Per-client session state inside the TSA: the shared secret (keyed for
/// the ratchet) and the monotone ratchet-counter floor that makes every
/// seed single-use.
#[derive(Debug)]
struct TsaSession {
    key: RatchetKey,
    /// Smallest counter the TSA will still accept for this session.
    next_counter: u64,
    /// Individually revoked counters at or above the floor.  A revocation
    /// cannot simply advance the floor: lower counters of the same session
    /// may still be pending in the open buffer, and burning them would
    /// poison the batch release.  The set is pruned as the floor passes it.
    revoked: BTreeSet<u64>,
}

impl Tsa {
    /// Boots a TSA "enclave" for the given configuration; `hardware_key` is
    /// the simulated hardware signing key whose public counterpart is the
    /// verification key in [`TsaPublication`].
    pub fn new(config: &SecAggConfig, hardware_key: [u8; 32]) -> Self {
        let mut log = MerkleLog::new();
        publish_binary(&mut log, &config.trusted_binary);
        Tsa {
            config: config.clone(),
            hardware_key,
            private_keys: BTreeMap::new(),
            used_indices: BTreeSet::new(),
            next_index: 0,
            log,
            mask_sum: GroupVec::zeros(config.group_params(), config.vector_len),
            processed: 0,
            finalized: false,
            boundary: BoundaryStats::default(),
            epoch: 0,
            epoch_key: None,
            epoch_init: None,
            sessions: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The public material clients use to validate this TSA: expected binary
    /// measurement, parameter hash, verifiable-log snapshot and inclusion
    /// proof, and the quote verification key.
    pub fn publication(&self) -> TsaPublication {
        let binary = &self.config.trusted_binary;
        let record = binary.log_record();
        #[expect(
            clippy::expect_used,
            reason = "the constructor records the binary before any publication can be requested"
        )]
        let index = (0..self.log.len())
            .find(|&i| self.log.get(i) == Some(record.as_slice()))
            .expect("binary recorded at construction");
        TsaPublication {
            expected_measurement: binary.measurement(),
            expected_params_hash: self.config.params_hash(),
            log_root: self.log.root(),
            log_size: self.log.len(),
            log_index: index,
            log_record: record,
            #[expect(
                clippy::expect_used,
                reason = "`index` was found in the log two statements above; a missing proof is an internal invariant breach"
            )]
            inclusion_proof: self
                .log
                .inclusion_proof(index)
                .expect("inclusion proof for recorded binary"),
            hardware_key: self.hardware_key,
        }
    }

    /// Prepares `n` Diffie–Hellman initial messages with attestation quotes
    /// (Figure 16 step 1).  Each may be completed by at most one client.
    pub fn prepare_initial_messages(
        &mut self,
        n: usize,
        rng: &mut ChaCha20Rng,
    ) -> Vec<KeyExchangeInitialMessage> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let index = self.next_index;
            self.next_index += 1;
            let private = DhPrivateKey::generate(&self.config.dh_group, rng);
            let public = private.public_key();
            let payload = public.to_bytes();
            let quote = AttestationQuote::sign(
                &self.hardware_key,
                self.config.trusted_binary.measurement(),
                self.config.params_hash(),
                &payload,
            );
            self.boundary.bytes_out += payload.len() as u64 + 128; // key + quote
            self.boundary.messages_out += 1;
            self.private_keys.insert(index, private);
            out.push(KeyExchangeInitialMessage {
                index,
                tsa_public: public,
                quote,
            });
        }
        out
    }

    /// Processes one client's completing message (Figure 16 step 6): derives
    /// the shared secret, decrypts the seed, regenerates the mask, and adds
    /// it to the running sum.
    ///
    /// # Errors
    ///
    /// See [`TsaError`].
    pub(crate) fn process_client(
        &mut self,
        completing: &CompletingMessage,
    ) -> Result<(), TsaError> {
        if self.finalized {
            return Err(TsaError::RoundFinalized);
        }
        self.boundary.bytes_in += completing.byte_len() as u64;
        self.boundary.messages_in += 1;

        if self.used_indices.contains(&completing.index) {
            return Err(TsaError::IndexAlreadyUsed(completing.index));
        }
        let private = self
            .private_keys
            .get(&completing.index)
            .ok_or(TsaError::UnknownIndex(completing.index))?;
        let shared = private.shared_secret(&completing.client_public);
        let key = AeadKey::from_shared_secret(&shared);
        let ad = seed_associated_data(completing.index);
        let plaintext = open(&key, &ad, &completing.encrypted_seed)
            .map_err(|_| TsaError::SeedDecryptionFailed)?;
        if plaintext.len() != SEED_LEN {
            return Err(TsaError::MalformedSeed);
        }
        let mut seed: MaskSeed = [0u8; SEED_LEN];
        seed.copy_from_slice(&plaintext);
        let mask = expand_mask(&seed, self.config.group_params(), self.config.vector_len);
        self.mask_sum.add_assign(&mask);
        self.processed += 1;
        // "After that, the trusted party will not process any further
        // completing messages to i'th initial message."
        self.used_indices.insert(completing.index);
        self.private_keys.remove(&completing.index);
        Ok(())
    }

    /// Number of clients processed in the current round.
    pub fn processed_clients(&self) -> usize {
        self.processed
    }

    /// Discards the private half of a key exchange whose client will never
    /// complete it (the host turned the upload away before forwarding the
    /// seed).  Without this, every abandoned exchange would pin its private
    /// key forever.  The index stays single-use: a completing message for a
    /// revoked index is rejected like any replay.  Returns whether a
    /// pending exchange was actually revoked.
    pub fn revoke_unused_exchange(&mut self, index: usize) -> bool {
        // The revocation notice is a constant-size host→TEE control message.
        self.boundary.bytes_in += 8;
        self.boundary.messages_in += 1;
        let revoked = self.private_keys.remove(&index).is_some();
        if revoked {
            self.used_indices.insert(index);
        }
        revoked
    }

    /// Number of key exchanges prepared but not yet completed or revoked
    /// (the TSA's only per-client state).
    pub fn pending_exchanges(&self) -> usize {
        self.private_keys.len()
    }

    /// Releases the aggregated unmask (Figure 16 step 7) if at least
    /// `threshold` clients have been processed, and finalizes the round.
    ///
    /// # Errors
    ///
    /// Returns [`TsaError::ThresholdNotMet`] below threshold and
    /// [`TsaError::RoundFinalized`] if already finalized.
    pub(crate) fn generate_unmask(&mut self) -> Result<GroupVec, TsaError> {
        if self.finalized {
            return Err(TsaError::RoundFinalized);
        }
        if self.processed < self.config.threshold {
            return Err(TsaError::ThresholdNotMet {
                processed: self.processed,
                required: self.config.threshold,
            });
        }
        self.finalized = true;
        self.boundary.bytes_out += self.mask_sum.byte_len() as u64;
        self.boundary.messages_out += 1;
        Ok(self.mask_sum.clone())
    }

    /// Starts a new aggregation round (new buffer in FedBuff): resets the
    /// running mask sum and the processed counter.  Key-exchange indices stay
    /// single-use across rounds.
    pub(crate) fn start_new_round(&mut self) {
        self.mask_sum = GroupVec::zeros(self.config.group_params(), self.config.vector_len);
        self.processed = 0;
        self.finalized = false;
    }

    // -----------------------------------------------------------------
    // Session-cached key exchange (see `crate::session`)
    // -----------------------------------------------------------------

    /// The current session epoch.  Bumped on every invalidation; cached
    /// client state from an older epoch is useless against the new key.
    pub fn session_epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the TSA's session offer for the current epoch: its epoch
    /// public key under an attestation quote.  The key is generated (and the
    /// offer metered across the boundary) at most once per epoch — this is
    /// the amortization that replaces the per-update initial message.
    #[expect(
        clippy::expect_used,
        reason = "the branch above populates `epoch_init` whenever it was empty"
    )]
    pub fn session_init(&mut self) -> SessionInitMessage {
        if self.epoch_init.is_none() {
            // The epoch key is derived from the hardware key and the epoch
            // number, so it never touches the shared protocol RNG: when a
            // session is established cannot shift any other draw.
            let mut info = b"papaya/epoch-key/".to_vec();
            info.extend_from_slice(&self.epoch.to_be_bytes());
            let seed = hmac_sha256(&self.hardware_key, &info);
            let mut rng = ChaCha20Rng::from_seed(seed);
            let private = DhPrivateKey::generate(&self.config.dh_group, &mut rng);
            let public = private.public_key();
            let payload = public.to_bytes();
            let quote = AttestationQuote::sign(
                &self.hardware_key,
                self.config.trusted_binary.measurement(),
                self.config.params_hash(),
                &payload,
            );
            self.boundary.bytes_out += payload.len() as u64 + 128; // key + quote
            self.boundary.messages_out += 1;
            self.epoch_key = Some(private);
            self.epoch_init = Some(SessionInitMessage {
                epoch: self.epoch,
                tsa_public: public,
                quote,
            });
        }
        self.epoch_init.clone().expect("built above")
    }

    /// Establishes (or refreshes) a client's session: the host forwards the
    /// client's session public key, the TSA derives the shared secret.  The
    /// ratchet-counter floor of an existing session is preserved so a
    /// re-establishment can never resurrect an already-used or revoked
    /// counter.
    pub fn establish_session(&mut self, client_id: u64, client_public: &DhPublicKey) {
        // client id + public key cross the boundary once per session.
        self.boundary.bytes_in += 8 + DhPublicKey::BYTE_LEN as u64;
        self.boundary.messages_in += 1;
        if self.epoch_init.is_none() {
            self.session_init();
        }
        #[expect(
            clippy::expect_used,
            reason = "session_init was just run if the epoch key was absent; absence here is an internal invariant breach"
        )]
        let secret = self
            .epoch_key
            .as_ref()
            .expect("epoch key exists after session_init")
            .shared_secret(client_public);
        let key = RatchetKey::new(&secret);
        match self.sessions.entry(client_id) {
            Entry::Occupied(mut session) => session.get_mut().key = key,
            Entry::Vacant(slot) => {
                slot.insert(TsaSession {
                    key,
                    next_counter: 0,
                    revoked: BTreeSet::new(),
                });
            }
        }
    }

    /// Number of sessions established in the current epoch.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Releases the aggregated unmask for one closing buffer in a single
    /// round-trip: the host sends the batch of [`MaskRef`]s (16 bytes per
    /// update) and the TSA regenerates and sums every mask in one pass.
    ///
    /// The call is atomic: all refs are validated against the per-session
    /// counter floors (including duplicates *within* the batch) before any
    /// state changes; on error no floor moves and nothing is released.
    /// Unlike the per-update path there is no round state to finalize —
    /// the batch itself delimits the buffer.
    ///
    /// # Errors
    ///
    /// [`TsaError::ThresholdNotMet`] when the batch is smaller than the
    /// threshold, [`TsaError::UnknownSession`] and
    /// [`TsaError::StaleSessionCounter`] on invalid refs.
    pub(crate) fn release_batch(&mut self, refs: &[MaskRef]) -> Result<GroupVec, TsaError> {
        // The batch crosses the boundary as one message: the refs plus a
        // length header.
        self.boundary.bytes_in += (refs.len() * MaskRef::BYTE_LEN) as u64 + 8;
        self.boundary.messages_in += 1;
        if refs.len() < self.config.threshold {
            return Err(TsaError::ThresholdNotMet {
                processed: refs.len(),
                required: self.config.threshold,
            });
        }
        // Validation pass: every ref must be at or above its session's
        // floor, and refs within the batch must not collide.  Ordered map:
        // the floor-advance loop below iterates it, and enclave state
        // transitions must not depend on hash order.
        let mut floors: BTreeMap<u64, u64> = BTreeMap::new();
        for r in refs {
            let session = self
                .sessions
                .get(&r.client_id)
                .ok_or(TsaError::UnknownSession(r.client_id))?;
            let floor = floors.entry(r.client_id).or_insert(session.next_counter);
            if r.counter < *floor || session.revoked.contains(&r.counter) {
                return Err(TsaError::StaleSessionCounter {
                    client_id: r.client_id,
                    counter: r.counter,
                });
            }
            *floor = r.counter + 1;
        }
        // Release pass: expand every mask through one reusable buffer.
        let params = self.config.group_params();
        let mut sum = GroupVec::zeros(params, self.config.vector_len);
        let mut scratch = std::mem::take(&mut self.scratch);
        for r in refs {
            #[expect(
                clippy::expect_used,
                reason = "every ref passed the validation pass above, which requires an established session"
            )]
            let session = self.sessions.get(&r.client_id).expect("validated");
            let seed = session.key.seed(r.counter);
            expand_mask_into(&seed, params, self.config.vector_len, &mut scratch);
            sum.add_assign_slice(&scratch);
        }
        self.scratch = scratch;
        for (client_id, floor) in floors {
            #[expect(
                clippy::expect_used,
                reason = "`floors` keys were validated against established sessions above"
            )]
            let session = self.sessions.get_mut(&client_id).expect("validated");
            session.next_counter = floor;
            // Revocations the floor has now passed can never match again.
            session.revoked = session.revoked.split_off(&floor);
        }
        self.boundary.bytes_out += sum.byte_len() as u64;
        self.boundary.messages_out += 1;
        Ok(sum)
    }

    /// Burns a ratchet counter whose masked update the host turned away
    /// before any release (the session-mode analogue of
    /// [`Tsa::revoke_unused_exchange`]): the counter is individually
    /// revoked so its seed can never be released, while *lower* counters of
    /// the same session still pending in the open buffer stay valid.
    /// Returns whether the counter was still live.
    pub fn revoke_session_counter(&mut self, client_id: u64, counter: u64) -> bool {
        self.boundary.bytes_in += MaskRef::BYTE_LEN as u64;
        self.boundary.messages_in += 1;
        match self.sessions.get_mut(&client_id) {
            Some(s) if counter >= s.next_counter => s.revoked.insert(counter),
            _ => false,
        }
    }

    /// Invalidates every cached session and bumps the epoch: the next
    /// [`Tsa::session_init`] offers a fresh key, and every client must
    /// re-handshake.  Called by the host on aggregator crash/reset, and on
    /// attestation change (a new trusted binary in the verifiable log; only
    /// the tests publish one).  Unmetered: a crash tears the enclave down
    /// with it, so no message crosses the boundary.
    pub fn invalidate_sessions(&mut self) {
        self.sessions.clear();
        self.epoch += 1;
        self.epoch_key = None;
        self.epoch_init = None;
    }

    /// Cumulative host↔TEE boundary traffic.
    pub fn boundary_stats(&self) -> BoundaryStats {
        self.boundary
    }
}

/// Associated data binding an encrypted seed to its key-exchange index.
pub(crate) fn seed_associated_data(index: usize) -> Vec<u8> {
    let mut ad = b"papaya/seed/".to_vec();
    ad.extend_from_slice(&(index as u64).to_be_bytes());
    ad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SecAggClient;

    impl Tsa {
        /// Records a new trusted binary release in the verifiable log (the
        /// Appendix C.2 update flow).  Returns the new log size.
        ///
        /// A binary change is an attestation change, so every cached session is
        /// invalidated: clients must re-verify the new measurement before any
        /// further masking.
        fn publish_new_binary(&mut self, binary: &crate::attestation::TrustedBinary) -> usize {
            publish_binary(&mut self.log, binary);
            self.invalidate_sessions();
            self.log.len()
        }

        /// Read access to the verifiable log (for auditors).
        fn verifiable_log(&self) -> &MerkleLog {
            &self.log
        }
    }

    fn setup(vector_len: usize, threshold: usize) -> (Tsa, SecAggConfig, ChaCha20Rng) {
        let config = SecAggConfig::insecure_fast(vector_len, threshold);
        let tsa = Tsa::new(&config, [0x11u8; 32]);
        let rng = ChaCha20Rng::from_seed([3u8; 32]);
        (tsa, config, rng)
    }

    #[test]
    fn initial_messages_have_unique_indices_and_valid_quotes() {
        let (mut tsa, config, mut rng) = setup(4, 2);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(5, &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for m in &msgs {
            assert!(seen.insert(m.index));
            assert!(crate::attestation::verify_quote(
                &publication,
                &m.quote,
                &m.tsa_public.to_bytes()
            )
            .is_ok());
        }
        assert_eq!(config.threshold, 2);
    }

    #[test]
    fn unmask_requires_threshold() {
        let (mut tsa, config, mut rng) = setup(4, 3);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(3, &mut rng);
        // Only two clients participate.
        for init in msgs.iter().take(2) {
            let upload =
                SecAggClient::participate(&[1.0; 4], init, &publication, &config, &mut rng)
                    .unwrap();
            tsa.process_client(&upload.completing).unwrap();
        }
        assert_eq!(
            tsa.generate_unmask(),
            Err(TsaError::ThresholdNotMet {
                processed: 2,
                required: 3
            })
        );
    }

    #[test]
    fn index_reuse_rejected() {
        let (mut tsa, config, mut rng) = setup(4, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(1, &mut rng);
        let upload =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        tsa.process_client(&upload.completing).unwrap();
        let second =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        assert_eq!(
            tsa.process_client(&second.completing),
            Err(TsaError::IndexAlreadyUsed(0))
        );
    }

    #[test]
    fn unknown_index_rejected() {
        let (mut tsa, config, mut rng) = setup(4, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(1, &mut rng);
        let mut upload =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        upload.completing.index = 99;
        assert_eq!(
            tsa.process_client(&upload.completing),
            Err(TsaError::UnknownIndex(99))
        );
    }

    #[test]
    fn revoked_exchange_frees_state_and_rejects_completion() {
        let (mut tsa, config, mut rng) = setup(4, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(2, &mut rng);
        assert_eq!(tsa.pending_exchanges(), 2);
        assert!(tsa.revoke_unused_exchange(msgs[0].index));
        assert_eq!(tsa.pending_exchanges(), 1);
        // Revoking again (or revoking a completed/unknown index) is a no-op.
        assert!(!tsa.revoke_unused_exchange(msgs[0].index));
        assert!(!tsa.revoke_unused_exchange(999));
        // A completion for the revoked index is rejected like a replay.
        let upload =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        assert_eq!(
            tsa.process_client(&upload.completing),
            Err(TsaError::IndexAlreadyUsed(msgs[0].index))
        );
        // The untouched exchange still works.
        let ok = SecAggClient::participate(&[0.5; 4], &msgs[1], &publication, &config, &mut rng)
            .unwrap();
        tsa.process_client(&ok.completing).unwrap();
        assert_eq!(tsa.pending_exchanges(), 0);
    }

    #[test]
    fn tampered_seed_rejected() {
        let (mut tsa, config, mut rng) = setup(4, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(1, &mut rng);
        let mut upload =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        let n = upload.completing.encrypted_seed.len();
        upload.completing.encrypted_seed[n / 2] ^= 1;
        assert_eq!(
            tsa.process_client(&upload.completing),
            Err(TsaError::SeedDecryptionFailed)
        );
    }

    #[test]
    fn finalized_round_ignores_further_messages() {
        let (mut tsa, config, mut rng) = setup(4, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(2, &mut rng);
        let upload =
            SecAggClient::participate(&[0.5; 4], &msgs[0], &publication, &config, &mut rng)
                .unwrap();
        tsa.process_client(&upload.completing).unwrap();
        tsa.generate_unmask().unwrap();
        let late = SecAggClient::participate(&[0.5; 4], &msgs[1], &publication, &config, &mut rng)
            .unwrap();
        assert_eq!(
            tsa.process_client(&late.completing),
            Err(TsaError::RoundFinalized)
        );
        assert_eq!(tsa.generate_unmask(), Err(TsaError::RoundFinalized));
        // A new round accepts clients again.
        tsa.start_new_round();
        assert!(tsa.process_client(&late.completing).is_ok());
    }

    #[test]
    fn boundary_traffic_is_constant_per_client() {
        let (mut tsa, config, mut rng) = setup(1000, 1);
        let publication = tsa.publication();
        let msgs = tsa.prepare_initial_messages(3, &mut rng);
        let before = tsa.boundary_stats();
        let mut per_client = Vec::new();
        for init in &msgs {
            let upload =
                SecAggClient::participate(&[0.1; 1000], init, &publication, &config, &mut rng)
                    .unwrap();
            let b0 = tsa.boundary_stats().bytes_in;
            tsa.process_client(&upload.completing).unwrap();
            per_client.push(tsa.boundary_stats().bytes_in - b0);
        }
        // Inbound bytes per client are independent of the 1000-element model.
        assert!(per_client.iter().all(|&b| b == per_client[0]));
        assert!(per_client[0] < 1000);
        assert_eq!(before.bytes_in, 0);
    }

    mod sessions {
        use super::*;
        use crate::group::GroupVec;
        use crate::mask::expand_mask;
        use crate::session::{client_handshake, MaskRef, RatchetKey};

        /// Establishes a session for `client_id` and returns its ratchet key.
        fn establish(tsa: &mut Tsa, config: &SecAggConfig, client_id: u64) -> RatchetKey {
            let publication = tsa.publication();
            let init = tsa.session_init();
            let handshake = client_handshake(
                &config.dh_group,
                &[client_id as u8 + 1; 32],
                &init,
                &publication,
            );
            tsa.establish_session(client_id, &handshake.client_public);
            handshake.key
        }

        #[test]
        fn batched_release_sums_the_ratcheted_masks() {
            let (mut tsa, config, _) = setup(16, 2);
            let k1 = establish(&mut tsa, &config, 1);
            let k2 = establish(&mut tsa, &config, 2);
            assert_eq!(tsa.active_sessions(), 2);
            let refs = [
                MaskRef {
                    client_id: 1,
                    counter: 0,
                },
                MaskRef {
                    client_id: 2,
                    counter: 0,
                },
                MaskRef {
                    client_id: 1,
                    counter: 1,
                },
            ];
            let released = tsa.release_batch(&refs).unwrap();
            let params = config.group_params();
            let mut expected = GroupVec::zeros(params, 16);
            for (key, counter) in [(&k1, 0), (&k2, 0), (&k1, 1)] {
                expected.add_assign(&expand_mask(&key.seed(counter), params, 16));
            }
            assert_eq!(released, expected);
        }

        #[test]
        fn batched_release_enforces_threshold() {
            let (mut tsa, config, _) = setup(8, 3);
            establish(&mut tsa, &config, 1);
            let refs = [
                MaskRef {
                    client_id: 1,
                    counter: 0,
                },
                MaskRef {
                    client_id: 1,
                    counter: 1,
                },
            ];
            assert_eq!(
                tsa.release_batch(&refs),
                Err(TsaError::ThresholdNotMet {
                    processed: 2,
                    required: 3
                })
            );
        }

        #[test]
        fn counters_are_single_use_across_batches_and_within_a_batch() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 7);
            // Duplicate inside one batch is caught by the validation pass.
            let dup = [
                MaskRef {
                    client_id: 7,
                    counter: 0,
                },
                MaskRef {
                    client_id: 7,
                    counter: 0,
                },
            ];
            assert_eq!(
                tsa.release_batch(&dup),
                Err(TsaError::StaleSessionCounter {
                    client_id: 7,
                    counter: 0
                })
            );
            // A released counter can never be released again.
            tsa.release_batch(&[MaskRef {
                client_id: 7,
                counter: 0,
            }])
            .unwrap();
            assert_eq!(
                tsa.release_batch(&[MaskRef {
                    client_id: 7,
                    counter: 0,
                }]),
                Err(TsaError::StaleSessionCounter {
                    client_id: 7,
                    counter: 0
                })
            );
            // Later counters still work.
            tsa.release_batch(&[MaskRef {
                client_id: 7,
                counter: 3,
            }])
            .unwrap();
        }

        #[test]
        fn failed_batch_moves_no_floor() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 1);
            // client 2 has no session, so the whole batch fails...
            let refs = [
                MaskRef {
                    client_id: 1,
                    counter: 0,
                },
                MaskRef {
                    client_id: 2,
                    counter: 0,
                },
            ];
            assert_eq!(tsa.release_batch(&refs), Err(TsaError::UnknownSession(2)));
            // ...and client 1's counter 0 is still live.
            tsa.release_batch(&[MaskRef {
                client_id: 1,
                counter: 0,
            }])
            .unwrap();
        }

        #[test]
        fn revoked_counter_is_never_released() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 4);
            assert!(tsa.revoke_session_counter(4, 0));
            // Revoking an already-burned or unknown counter is a no-op.
            assert!(!tsa.revoke_session_counter(4, 0));
            assert!(!tsa.revoke_session_counter(99, 0));
            assert_eq!(
                tsa.release_batch(&[MaskRef {
                    client_id: 4,
                    counter: 0,
                }]),
                Err(TsaError::StaleSessionCounter {
                    client_id: 4,
                    counter: 0
                })
            );
            tsa.release_batch(&[MaskRef {
                client_id: 4,
                counter: 1,
            }])
            .unwrap();
        }

        #[test]
        fn revoking_a_later_counter_keeps_earlier_pending_counters_live() {
            // Counter 0 sits in the open buffer when the client's *next*
            // participation (counter 1) is policy-rejected and revoked.  The
            // revocation must burn exactly counter 1: the buffer containing
            // counter 0 still has to release.
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 6);
            assert!(tsa.revoke_session_counter(6, 1));
            tsa.release_batch(&[MaskRef {
                client_id: 6,
                counter: 0,
            }])
            .unwrap();
            // The release moved the floor to 1; the revoked counter 1 stays
            // dead, and the revocation set is pruned once the floor passes.
            assert_eq!(
                tsa.release_batch(&[MaskRef {
                    client_id: 6,
                    counter: 1,
                }]),
                Err(TsaError::StaleSessionCounter {
                    client_id: 6,
                    counter: 1
                })
            );
            tsa.release_batch(&[MaskRef {
                client_id: 6,
                counter: 2,
            }])
            .unwrap();
        }

        #[test]
        fn invalidation_clears_sessions_and_bumps_the_epoch() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 1);
            let old_init = tsa.session_init();
            assert_eq!(old_init.epoch, 0);
            tsa.invalidate_sessions();
            assert_eq!(tsa.active_sessions(), 0);
            assert_eq!(tsa.session_epoch(), 1);
            assert_eq!(
                tsa.release_batch(&[MaskRef {
                    client_id: 1,
                    counter: 0,
                }]),
                Err(TsaError::UnknownSession(1))
            );
            // The new epoch offers a fresh key under a fresh quote.
            let new_init = tsa.session_init();
            assert_eq!(new_init.epoch, 1);
            assert_ne!(
                old_init.tsa_public.to_bytes(),
                new_init.tsa_public.to_bytes()
            );
        }

        #[test]
        fn publishing_a_new_binary_invalidates_sessions() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 1);
            tsa.publish_new_binary(&crate::attestation::TrustedBinary::new(
                "tsa-v2",
                b"new code".to_vec(),
            ));
            assert_eq!(tsa.active_sessions(), 0);
            assert_eq!(tsa.session_epoch(), 1);
        }

        #[test]
        fn session_init_is_metered_once_per_epoch() {
            let (mut tsa, _, _) = setup(8, 1);
            let before = tsa.boundary_stats().messages_out;
            let a = tsa.session_init();
            let b = tsa.session_init();
            assert_eq!(a.tsa_public.to_bytes(), b.tsa_public.to_bytes());
            assert_eq!(tsa.boundary_stats().messages_out, before + 1);
        }

        #[test]
        fn re_establishment_preserves_the_counter_floor() {
            let (mut tsa, config, _) = setup(8, 1);
            establish(&mut tsa, &config, 1);
            tsa.release_batch(&[MaskRef {
                client_id: 1,
                counter: 5,
            }])
            .unwrap();
            // The host re-establishes (e.g. it lost its cache); the floor
            // must survive so counter 5 stays burned.
            establish(&mut tsa, &config, 1);
            assert_eq!(
                tsa.release_batch(&[MaskRef {
                    client_id: 1,
                    counter: 5,
                }]),
                Err(TsaError::StaleSessionCounter {
                    client_id: 1,
                    counter: 5
                })
            );
        }

        #[test]
        fn batched_release_boundary_traffic_is_constant_per_update() {
            // The session-mode Figure 6 story: 16 bytes per update into the
            // enclave, independent of the model size.
            let (mut tsa, config, _) = setup(1000, 1);
            establish(&mut tsa, &config, 1);
            let bytes_before = tsa.boundary_stats().bytes_in;
            let refs: Vec<MaskRef> = (0..10)
                .map(|counter| MaskRef {
                    client_id: 1,
                    counter,
                })
                .collect();
            tsa.release_batch(&refs).unwrap();
            let batch_bytes = tsa.boundary_stats().bytes_in - bytes_before;
            assert_eq!(batch_bytes, 10 * MaskRef::BYTE_LEN as u64 + 8);
        }
    }

    #[test]
    fn publishing_new_binary_grows_log_and_old_publication_still_verifies() {
        let (mut tsa, _, _) = setup(4, 1);
        let old_pub = tsa.publication();
        let new_size = tsa.publish_new_binary(&crate::attestation::TrustedBinary::new(
            "tsa-v2",
            b"new code".to_vec(),
        ));
        assert_eq!(new_size, 2);
        // Consistency between old and new snapshots is provable.
        let proof = tsa
            .verifiable_log()
            .consistency_proof(old_pub.log_size)
            .unwrap();
        assert!(proof.verify(
            &old_pub.log_root,
            old_pub.log_size,
            &tsa.verifiable_log().root(),
            tsa.verifiable_log().len()
        ));
    }
}
