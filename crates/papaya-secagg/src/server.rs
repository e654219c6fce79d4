//! The untrusted server-side aggregator.
//!
//! The aggregator never sees a client's unmasked update: it sums masked
//! updates incrementally (Figure 16 step 5) and, once the aggregation goal is
//! reached, asks the TSA for the aggregated unmask and subtracts it
//! (step 8).

use crate::fixed_point::FixedPointCodec;
use crate::group::GroupVec;
use crate::protocol::{ClientUploadMessage, SecAggConfig};
use crate::session::MaskRef;
use crate::tsa::{Tsa, TsaError};

/// Errors returned by the untrusted aggregator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggregatorError {
    /// The masked update has the wrong length or group.
    MalformedUpdate,
    /// The TSA rejected the client's completing message; the update was not
    /// aggregated.
    Tsa(TsaError),
}

impl std::fmt::Display for AggregatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregatorError::MalformedUpdate => write!(f, "malformed masked update"),
            AggregatorError::Tsa(e) => write!(f, "TSA rejected client: {e}"),
        }
    }
}

impl std::error::Error for AggregatorError {}

impl From<TsaError> for AggregatorError {
    fn from(e: TsaError) -> Self {
        AggregatorError::Tsa(e)
    }
}

/// Incremental aggregator of masked client updates.
#[derive(Debug)]
pub struct UntrustedAggregator {
    codec: FixedPointCodec,
    vector_len: usize,
    masked_sum: GroupVec,
    accepted: usize,
}

impl UntrustedAggregator {
    /// Creates an aggregator for the given configuration.
    pub fn new(config: &SecAggConfig) -> Self {
        UntrustedAggregator {
            codec: config.codec,
            vector_len: config.vector_len,
            masked_sum: GroupVec::zeros(config.group_params(), config.vector_len),
            accepted: 0,
        }
    }

    /// Number of updates accepted into the current buffer.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Submits one client upload: forwards the completing message to the TSA
    /// and, if the TSA accepts it, adds the masked update to the running sum.
    ///
    /// # Errors
    ///
    /// Returns [`AggregatorError::MalformedUpdate`] for shape mismatches and
    /// [`AggregatorError::Tsa`] when the TSA rejects the client (in which
    /// case the masked update is discarded, keeping host and TSA sums
    /// consistent).
    pub fn submit(
        &mut self,
        msg: ClientUploadMessage,
        tsa: &mut Tsa,
    ) -> Result<(), AggregatorError> {
        if msg.masked_update.len() != self.vector_len
            || msg.masked_update.params() != self.masked_sum.params()
        {
            return Err(AggregatorError::MalformedUpdate);
        }
        tsa.process_client(&msg.completing)?;
        self.masked_sum.add_assign(&msg.masked_update);
        self.accepted += 1;
        Ok(())
    }

    /// Finalizes the buffer: obtains the unmask from the TSA, subtracts it,
    /// decodes the sum of updates, and resets both the aggregator and the
    /// TSA for the next buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`TsaError::ThresholdNotMet`] if too few clients
    /// contributed.
    pub fn finalize(&mut self, tsa: &mut Tsa) -> Result<Vec<f32>, AggregatorError> {
        let unmask = tsa.generate_unmask()?;
        let decoded = self.unmask_and_reset(&unmask);
        tsa.start_new_round();
        Ok(decoded)
    }

    /// Submits one session-mode masked update: only the masked vector is
    /// added to the running sum — the TSA learns about it later, as one
    /// 16-byte [`MaskRef`] inside the closing buffer's
    /// [`UntrustedAggregator::finalize_batch`] call, instead of through a
    /// per-update completing message.
    ///
    /// # Errors
    ///
    /// Returns [`AggregatorError::MalformedUpdate`] for shape mismatches.
    pub fn submit_masked(&mut self, masked: &GroupVec) -> Result<(), AggregatorError> {
        if masked.len() != self.vector_len || masked.params() != self.masked_sum.params() {
            return Err(AggregatorError::MalformedUpdate);
        }
        self.masked_sum.add_assign(masked);
        self.accepted += 1;
        Ok(())
    }

    /// Finalizes a session-mode buffer in one TSA round-trip: sends the
    /// buffer's [`MaskRef`]s, receives the accumulated mask sum, subtracts
    /// it in a single pass, and decodes.  The aggregator resets for the next
    /// buffer; the TSA has no per-round state to reset in session mode.
    ///
    /// # Errors
    ///
    /// Propagates the TSA's batch validation errors; on error the host
    /// buffer is left untouched (no state was released).
    pub fn finalize_batch(
        &mut self,
        tsa: &mut Tsa,
        refs: &[MaskRef],
    ) -> Result<Vec<f32>, AggregatorError> {
        let unmask = tsa.release_batch(refs)?;
        Ok(self.unmask_and_reset(&unmask))
    }

    /// Subtracts the TSA's unmask from the masked sum in place, decodes the
    /// result, and leaves a zeroed buffer for the next round.
    fn unmask_and_reset(&mut self, unmask: &GroupVec) -> Vec<f32> {
        self.masked_sum.sub_assign(unmask);
        let decoded = self.codec.decode_vec(&self.masked_sum);
        self.discard_masked_sum();
        decoded
    }

    /// Drops the session-mode masked partial sum without any TSA contact:
    /// the buffer's `MaskRef`s are never sent, so no key material for it is
    /// ever released.  Returns how many masked updates were dropped.
    pub fn discard_masked_sum(&mut self) -> usize {
        let dropped = self.accepted;
        self.masked_sum = GroupVec::zeros(self.masked_sum.params(), self.vector_len);
        self.accepted = 0;
        dropped
    }

    /// Abandons the buffer in progress *without* a TSA key release: the
    /// masked partial sum is dropped on the host and the TSA forgets the
    /// matching mask sum, so the unmask for this buffer is never generated
    /// and the server learns nothing about the dropped contributions.
    ///
    /// This is the streaming counterpart of a FedBuff Aggregator crash
    /// (`drop_buffered_updates`): buffered state dies with the process, and
    /// the next buffer starts clean on both sides of the TEE boundary.
    /// Returns how many masked updates were dropped.
    pub fn discard_buffer(&mut self, tsa: &mut Tsa) -> usize {
        let dropped = self.accepted;
        self.masked_sum = GroupVec::zeros(self.masked_sum.params(), self.vector_len);
        self.accepted = 0;
        tsa.start_new_round();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SecAggClient;
    use papaya_crypto::chacha20::ChaCha20Rng;

    fn run_round(
        updates: &[Vec<f32>],
        vector_len: usize,
        threshold: usize,
    ) -> Result<Vec<f32>, AggregatorError> {
        let config = SecAggConfig::insecure_fast(vector_len, threshold);
        let mut tsa = Tsa::new(&config, [0x77u8; 32]);
        let publication = tsa.publication();
        let mut rng = ChaCha20Rng::from_seed([21u8; 32]);
        let inits = tsa.prepare_initial_messages(updates.len(), &mut rng);
        let mut agg = UntrustedAggregator::new(&config);
        for (update, init) in updates.iter().zip(inits.iter()) {
            let msg =
                SecAggClient::participate(update, init, &publication, &config, &mut rng).unwrap();
            agg.submit(msg, &mut tsa)?;
        }
        agg.finalize(&mut tsa)
    }

    #[test]
    fn aggregated_sum_matches_plain_sum() {
        let updates = vec![
            vec![0.5, -1.0, 2.0, 0.0],
            vec![1.5, 1.0, -2.0, 0.25],
            vec![-0.5, 0.5, 1.0, -0.125],
        ];
        let sum = run_round(&updates, 4, 3).unwrap();
        let expected = [1.5f32, 0.5, 1.0, 0.125];
        for (s, e) in sum.iter().zip(expected.iter()) {
            assert!((s - e).abs() < 1e-3, "{s} vs {e}");
        }
    }

    #[test]
    fn below_threshold_finalize_fails() {
        let updates = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let err = run_round(&updates, 2, 3).unwrap_err();
        assert!(matches!(
            err,
            AggregatorError::Tsa(TsaError::ThresholdNotMet {
                processed: 2,
                required: 3
            })
        ));
    }

    #[test]
    fn consecutive_buffers_are_independent() {
        let config = SecAggConfig::insecure_fast(3, 2);
        let mut tsa = Tsa::new(&config, [0x55u8; 32]);
        let publication = tsa.publication();
        let mut rng = ChaCha20Rng::from_seed([4u8; 32]);
        let inits = tsa.prepare_initial_messages(4, &mut rng);
        let mut agg = UntrustedAggregator::new(&config);

        for init in inits.iter().take(2) {
            let msg =
                SecAggClient::participate(&[1.0, 2.0, 3.0], init, &publication, &config, &mut rng)
                    .unwrap();
            agg.submit(msg, &mut tsa).unwrap();
        }
        let first = agg.finalize(&mut tsa).unwrap();
        assert!((first[0] - 2.0).abs() < 1e-3);

        for init in inits.iter().skip(2) {
            let msg =
                SecAggClient::participate(&[-1.0, 0.0, 1.0], init, &publication, &config, &mut rng)
                    .unwrap();
            agg.submit(msg, &mut tsa).unwrap();
        }
        let second = agg.finalize(&mut tsa).unwrap();
        assert!(
            (second[0] + 2.0).abs() < 1e-3,
            "second buffer contaminated: {second:?}"
        );
        assert!((second[2] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn rejected_client_does_not_poison_the_sum() {
        let config = SecAggConfig::insecure_fast(2, 1);
        let mut tsa = Tsa::new(&config, [0x66u8; 32]);
        let publication = tsa.publication();
        let mut rng = ChaCha20Rng::from_seed([6u8; 32]);
        let inits = tsa.prepare_initial_messages(2, &mut rng);
        let mut agg = UntrustedAggregator::new(&config);

        let good =
            SecAggClient::participate(&[1.0, 1.0], &inits[0], &publication, &config, &mut rng)
                .unwrap();
        agg.submit(good, &mut tsa).unwrap();

        // An attacker replays the same completing message with a different
        // masked update; the TSA rejects it and the sum stays correct.
        let mut replay =
            SecAggClient::participate(&[50.0, 50.0], &inits[1], &publication, &config, &mut rng)
                .unwrap();
        replay.completing.index = inits[0].index;
        let err = agg.submit(replay, &mut tsa).unwrap_err();
        assert!(matches!(
            err,
            AggregatorError::Tsa(TsaError::IndexAlreadyUsed(_))
        ));

        let sum = agg.finalize(&mut tsa).unwrap();
        assert!((sum[0] - 1.0).abs() < 1e-3);
        assert_eq!(agg.accepted(), 0, "aggregator reset after finalize");
    }

    #[test]
    fn discard_buffer_drops_partial_sum_without_key_release() {
        let config = SecAggConfig::insecure_fast(3, 2);
        let mut tsa = Tsa::new(&config, [0x29u8; 32]);
        let publication = tsa.publication();
        let mut rng = ChaCha20Rng::from_seed([13u8; 32]);
        let inits = tsa.prepare_initial_messages(4, &mut rng);
        let mut agg = UntrustedAggregator::new(&config);

        // Two updates land, then the buffer is abandoned (Aggregator crash).
        for init in inits.iter().take(2) {
            let msg =
                SecAggClient::participate(&[5.0, 5.0, 5.0], init, &publication, &config, &mut rng)
                    .unwrap();
            agg.submit(msg, &mut tsa).unwrap();
        }
        let out_before = tsa.boundary_stats().messages_out;
        assert_eq!(agg.discard_buffer(&mut tsa), 2);
        assert_eq!(agg.accepted(), 0);
        // No unmask vector crossed the boundary: the TSA never released a key
        // for the partial buffer.
        assert_eq!(tsa.boundary_stats().messages_out, out_before);

        // The next buffer is uncontaminated by the dropped masked updates.
        for init in inits.iter().skip(2) {
            let msg =
                SecAggClient::participate(&[1.0, 2.0, 3.0], init, &publication, &config, &mut rng)
                    .unwrap();
            agg.submit(msg, &mut tsa).unwrap();
        }
        let sum = agg.finalize(&mut tsa).unwrap();
        assert!((sum[0] - 2.0).abs() < 1e-3, "contaminated: {sum:?}");
        assert!((sum[2] - 6.0).abs() < 1e-3, "contaminated: {sum:?}");
    }

    #[test]
    fn session_mode_round_matches_plain_sum() {
        // The full session-mode data path: handshake once per client, mask
        // with ratcheted seeds, release the whole buffer in one batch.
        use crate::session::{client_handshake, MaskRef};
        let config = SecAggConfig::insecure_fast(4, 2);
        let mut tsa = Tsa::new(&config, [0x31u8; 32]);
        let publication = tsa.publication();
        let init = tsa.session_init();
        let mut agg = UntrustedAggregator::new(&config);

        let updates = [vec![0.5f32, -1.0, 2.0, 0.0], vec![1.5, 1.0, -2.0, 0.25]];
        let mut refs = Vec::new();
        for (client_id, update) in updates.iter().enumerate() {
            let client_id = client_id as u64;
            let handshake = client_handshake(
                &config.dh_group,
                &[client_id as u8 + 9; 32],
                &init,
                &publication,
            );
            tsa.establish_session(client_id, &handshake.client_public);
            let seed = handshake.key.seed(0);
            let mask = crate::mask::expand_mask(&seed, config.group_params(), 4);
            let masked = config.codec.encode_vec(update).add(&mask);
            agg.submit_masked(&masked).unwrap();
            refs.push(MaskRef {
                client_id,
                counter: 0,
            });
        }
        assert_eq!(agg.accepted(), 2);
        let sum = agg.finalize_batch(&mut tsa, &refs).unwrap();
        let expected = [2.0f32, 0.0, 0.0, 0.25];
        for (s, e) in sum.iter().zip(expected.iter()) {
            assert!((s - e).abs() < 1e-3, "{s} vs {e}");
        }
        assert_eq!(agg.accepted(), 0, "aggregator reset after batch release");
    }

    #[test]
    fn failed_batch_release_leaves_the_buffer_intact() {
        use crate::session::MaskRef;
        let config = SecAggConfig::insecure_fast(2, 3);
        let mut tsa = Tsa::new(&config, [0x32u8; 32]);
        let mut agg = UntrustedAggregator::new(&config);
        let masked = GroupVec::zeros(config.group_params(), 2);
        agg.submit_masked(&masked).unwrap();
        let refs = [MaskRef {
            client_id: 0,
            counter: 0,
        }];
        assert!(agg.finalize_batch(&mut tsa, &refs).is_err());
        assert_eq!(agg.accepted(), 1, "buffer must survive a failed release");
    }

    #[test]
    fn discard_masked_sum_never_contacts_the_tsa() {
        let config = SecAggConfig::insecure_fast(2, 1);
        let tsa = Tsa::new(&config, [0x33u8; 32]);
        let mut agg = UntrustedAggregator::new(&config);
        agg.submit_masked(&GroupVec::zeros(config.group_params(), 2))
            .unwrap();
        let before = tsa.boundary_stats();
        assert_eq!(agg.discard_masked_sum(), 1);
        assert_eq!(agg.accepted(), 0);
        assert_eq!(tsa.boundary_stats(), before);
    }

    #[test]
    fn submit_masked_rejects_wrong_shape() {
        let config = SecAggConfig::insecure_fast(4, 1);
        let mut agg = UntrustedAggregator::new(&config);
        let wrong_len = GroupVec::zeros(config.group_params(), 8);
        assert_eq!(
            agg.submit_masked(&wrong_len).unwrap_err(),
            AggregatorError::MalformedUpdate
        );
        let wrong_group = GroupVec::zeros(crate::group::GroupParams::new(97), 4);
        assert_eq!(
            agg.submit_masked(&wrong_group).unwrap_err(),
            AggregatorError::MalformedUpdate
        );
    }

    #[test]
    fn malformed_update_rejected() {
        let config = SecAggConfig::insecure_fast(4, 1);
        let other = SecAggConfig::insecure_fast(8, 1);
        let mut tsa = Tsa::new(&config, [0x01u8; 32]);
        let other_tsa_pub = Tsa::new(&other, [0x01u8; 32]).publication();
        let mut rng = ChaCha20Rng::from_seed([8u8; 32]);
        let mut other_tsa = Tsa::new(&other, [0x01u8; 32]);
        let init = other_tsa
            .prepare_initial_messages(1, &mut rng)
            .pop()
            .unwrap();
        let msg =
            SecAggClient::participate(&[1.0; 8], &init, &other_tsa_pub, &other, &mut rng).unwrap();
        let mut agg = UntrustedAggregator::new(&config);
        assert_eq!(
            agg.submit(msg, &mut tsa).unwrap_err(),
            AggregatorError::MalformedUpdate
        );
    }
}
