//! The [`SecureAggregator`] decorator: any aggregation strategy, run through
//! the asynchronous TEE-based secure-aggregation protocol.
//!
//! `SecureAggregator` wraps a `Box<dyn Aggregator>` and preserves its entire
//! observable contract — accept/reject decisions, readiness (count, deadline,
//! or round goal), reset-on-crash semantics — while moving the *numerical*
//! aggregation into ciphertext space:
//!
//! * on [`accumulate`](Aggregator::accumulate) the simulated client
//!   fixed-point-encodes its (weight-scaled) delta, masks it with a
//!   seed-expanded one-time pad, and uploads; the untrusted host sums masked
//!   updates incrementally and forwards only the encrypted seed into the
//!   TSA (`O(K + m)` boundary traffic, Figure 6);
//! * on [`take`](Aggregator::take) the TSA releases the aggregated unmask
//!   for the closing buffer — the per-buffer *key release* — and the host
//!   subtracts it, decodes `Σ wᵢ·Δᵢ`, and divides by the publicly known
//!   weight total;
//! * on [`reset`](Aggregator::reset) (Aggregator crash) the masked partial
//!   sum is dropped **without** a key release: the TSA never unmasks a
//!   partial buffer, so a crash reveals nothing.
//!
//! Two modeling choices worth stating explicitly:
//!
//! 1. **Weights are applied client-side before masking.**  Every weight in
//!    the system ([`Aggregator::update_weight`]) is a pure function of
//!    metadata the server already sees in the clear (example count,
//!    staleness), so the server can hand the weight to the client with the
//!    download/upload exchange and track only the weight *total*; nothing
//!    an honest-but-curious server learns changes.
//! 2. **The inner strategy still folds the clear update.**  In this
//!    simulation the wrapped strategy serves as the *reference path*: it
//!    drives readiness and weighting exactly as a production metadata
//!    service would, and its release is compared against the decoded
//!    secure release to produce the per-buffer quantization-error trace.  The value returned to the server model is
//!    always the **decoded secure sum**, never the clear reference.
//!
//! The protocol RNG is seeded deterministically, and every protocol step
//! happens inside `accumulate`/`take`/`reset` on the event-loop thread, so
//! simulations stay bit-identical at any training parallelism.

use crate::aggregator::{AccumulateOutcome, Aggregator, StackTelemetry};
use crate::client::ClientUpdate;
use crate::config::{TaskConfig, TrainingMode};
use crate::trace::DecimatedTrace;
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::hmac::HmacKey;
use papaya_crypto::sha256::sha256;
use papaya_nn::params::ParamVec;
use papaya_secagg::fixed_point::FixedPointCodec;
use papaya_secagg::group::GroupParams;
use papaya_secagg::session::{
    HandshakeContext, HandshakePlan, MaskPlan, MaskPlanKind, MaskRef, MaskScratch, PrecomputedMask,
    RatchetKey,
};
use papaya_secagg::{SecAggClient, SecAggConfig, Tsa, TsaPublication, UntrustedAggregator};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Cumulative counters of the secure pipeline, exported through
/// [`Aggregator::stack_telemetry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SecureTelemetry {
    /// Masked updates accepted into a ciphertext buffer.
    pub masked_updates: u64,
    /// Masked uploads refused beneath the secure layer, dropped on the host
    /// without forwarding the seed so host and TSA sums stay consistent.
    /// Always 0 in a run: no stack the runtime builds refuses beneath it.
    pub masked_discarded: u64,
    /// Per-buffer TSA key releases (aggregated unmasks generated).  Always
    /// equals the number of server updates of a secure task: the TSA never
    /// unmasks a partial buffer.
    pub tsa_key_releases: u64,
    /// Buffers dropped without a key release (Aggregator crashes).
    pub buffers_dropped_unreleased: u64,
    /// Key releases whose decoded sum diverged from the clear reference by
    /// more than the fixed-point error budget — the signature of a
    /// per-client encode saturation or an aggregate wrapping the group
    /// modulus.  A nonzero count means the deployment needs a larger group
    /// or a smaller scale.
    pub out_of_range_releases: u64,
    /// Cumulative bytes into the TEE (encrypted seeds + key exchanges).
    pub tee_bytes_in: u64,
    /// Cumulative bytes out of the TEE (initial messages + unmask vectors).
    pub tee_bytes_out: u64,
    /// Masked updates served from a cached session (ratchet only, zero
    /// group exponentiations).
    pub session_cache_hits: u64,
    /// Masked updates that ran a full session handshake (first contact per
    /// epoch).  Zero in per-update mode, which has no cache to miss.
    pub session_cache_misses: u64,
    /// Diffie–Hellman exchanges the session cache avoided: one per cache
    /// hit, each worth ~4 group exponentiations of the per-update protocol.
    pub dh_exchanges_saved: u64,
    /// `(virtual_seconds, max_abs_error)` per key release: the element-wise
    /// gap between the decoded secure release and the clear reference
    /// release (pure fixed-point quantization).
    pub quantization_error_trace: DecimatedTrace<(f64, f64)>,
}

impl SecureTelemetry {
    /// Mean TEE-boundary bytes (inbound) per masked client update — the
    /// `O(K + m)` claim of Figure 6 in counter form.
    pub fn tee_bytes_in_per_client(&self) -> f64 {
        if self.masked_updates == 0 {
            0.0
        } else {
            self.tee_bytes_in as f64 / self.masked_updates as f64
        }
    }

    /// Largest per-release quantization error observed so far.
    pub fn max_quantization_error(&self) -> f64 {
        self.quantization_error_trace
            .iter()
            .map(|&(_, e)| e)
            .fold(0.0, f64::max)
    }
}

/// Wall-clock seconds the secure pipeline spent on the event-loop thread
/// in its four arithmetic stages — what the repo benchmark's traced run
/// (`benchmark/`, `--trace 1`) reports as `secure.handshake_s`,
/// `secure.mask_s`, `secure.encode_s` and `secure.unmask_s`.  The stages
/// are not the whole decorator: planning, the host's masked sum, the inner
/// strategy's reference fold and the release bookkeeping are untimed
/// (a few percent of `secure.busy_s` on the benchmark's `secure-stack`).
/// Every mask is expanded inline at accumulate, so all four stages run on
/// the event loop at any training parallelism.
///
/// Excluded from [`SecureTelemetry`] (and from result fingerprints): wall
/// time is machine-dependent, and fingerprints must not be.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SecureTimings {
    /// Session handshakes: the client's half (attestation check, key
    /// generation, Diffie–Hellman completion) and the TSA's half
    /// ([`Tsa::establish_session`]).
    pub handshake_s: f64,
    /// Mask ratchet + expansion.
    pub mask_s: f64,
    /// Fixed-point encoding and mask application of uploads.
    pub encode_s: f64,
    /// Batched TSA key releases and unmask subtraction.
    pub unmask_s: f64,
}

impl SecureTimings {
    /// Accumulates another breakdown (e.g. across a fleet of aggregators).
    pub fn merge(&mut self, other: &SecureTimings) {
        self.handshake_s += other.handshake_s;
        self.mask_s += other.mask_s;
        self.encode_s += other.encode_s;
        self.unmask_s += other.unmask_s;
    }
}

/// The TSA unmasking threshold a task's strategy calls for.
///
/// Strategies whose releases always carry exactly the aggregation goal
/// (FedBuff drains the instant the goal is met; a synchronous round closes
/// at the goal) get the goal itself — the strongest privacy the release
/// pattern supports.  FedBuff with a round deadline force-releases *partial*
/// buffers, so any threshold above 1 would deadlock a deadline release; a
/// deployment wanting a larger `t` must accept stalled releases instead.
pub fn recommended_threshold(config: &TaskConfig) -> usize {
    match config.mode {
        TrainingMode::Async {
            round_deadline_s: Some(_),
            ..
        } => 1,
        TrainingMode::Async {
            round_deadline_s: None,
            ..
        }
        | TrainingMode::Sync => config.aggregation_goal,
    }
}

/// The protocol configuration used for simulated secure tasks: the small
/// (non-production-strength) Diffie–Hellman group for speed, and fixed point
/// over `Z_{2^40}` with scale `2^16` so weighted aggregates up to ±2²³ —
/// far beyond anything an example-weighted buffer produces — encode without
/// wrapping, at ~1.5e-5 resolution.
fn simulation_config(vector_len: usize, threshold: usize) -> SecAggConfig {
    let mut config = SecAggConfig::insecure_fast(vector_len, threshold);
    config.codec = FixedPointCodec::new(GroupParams::new(1 << 40), 65_536.0);
    config
}

/// Derives a 32-byte protocol seed from a task seed, domain-separated so
/// the TSA hardware key, the client RNG stream, and the DP noise stream
/// ([`crate::dp`]) never collide.
pub(crate) fn derive_seed(domain: &[u8], seed: u64) -> [u8; 32] {
    let mut input = domain.to_vec();
    input.extend_from_slice(&seed.to_le_bytes());
    sha256(&input)
}

/// Host-side bookkeeping of the session-cached protocol mode.
struct SessionState {
    /// Master key from which each client's deterministic session-handshake
    /// key is derived (keyed by client id and TSA epoch), so post-crash
    /// re-handshakes get fresh keys without any shared protocol RNG draws.
    client_master: HmacKey,
    /// Established sessions: client id → cached ratchet key.
    session_keys: BTreeMap<usize, RatchetKey>,
    /// Next ratchet counter per client.  Burned at *plan* time: even a
    /// participation later rejected by policy consumes its counter, so no
    /// two uploads ever share a mask seed.
    counters: BTreeMap<usize, u64>,
    /// Plans issued at selection but not yet consumed at accumulate.
    planned: BTreeMap<usize, MaskPlan>,
    /// Mask references of the buffer in progress, released as one batch.
    pending_refs: Vec<MaskRef>,
    /// The epoch-invariant handshake material (group, TSA offer,
    /// publication, fixed-base table for the epoch key), built on the first
    /// handshake of each epoch and shared by every handshake plan of that
    /// epoch.  An epoch bump (crash, reset, republication) misses the cache
    /// and rebuilds.
    handshake_context: Option<Arc<HandshakeContext>>,
    /// Reusable mask-expansion buffer.
    scratch: MaskScratch,
}

/// The session-cached protocol state.  Callers are session-mode paths that
/// already dispatched on `session.is_some()`; taking the field (not
/// `&mut self`) keeps sibling-field borrows legal at the call sites.
#[expect(
    clippy::expect_used,
    reason = "session-mode dispatch guarantees presence; absence is an internal invariant breach, not a reachable input"
)]
fn session_state(session: &mut Option<SessionState>) -> &mut SessionState {
    session
        .as_mut()
        .expect("session-mode call on a per-update aggregator")
}

impl SessionState {
    fn new(seed: u64) -> Self {
        SessionState {
            client_master: HmacKey::new(&derive_seed(b"papaya/secagg-client-master/", seed)),
            session_keys: BTreeMap::new(),
            counters: BTreeMap::new(),
            planned: BTreeMap::new(),
            pending_refs: Vec::new(),
            handshake_context: None,
            scratch: MaskScratch::default(),
        }
    }
}

/// An aggregation strategy wrapped in the AsyncSecAgg protocol.
///
/// Two protocol modes share this type:
///
/// * **Session-cached** (the default, [`SecureAggregator::new`]): per-client
///   Diffie–Hellman sessions are cached across participations, later masks
///   are derived by ratcheting, and the TSA releases each buffer in one
///   batched round-trip.
/// * **Per-update** ([`SecureAggregator::new_per_update`]): the original
///   protocol — a full key exchange and an individual seed forward per
///   masked update.  Kept as the reference implementation; masks cancel
///   exactly in both modes, so released aggregates are bit-identical.
pub struct SecureAggregator {
    inner: Box<dyn Aggregator>,
    config: SecAggConfig,
    tsa: Tsa,
    publication: TsaPublication,
    rng: ChaCha20Rng,
    host: UntrustedAggregator,
    /// Clear-metadata weight total of the buffer in progress.
    weight_sum: f64,
    telemetry: SecureTelemetry,
    /// `Some` in session-cached mode, `None` in per-update mode.
    session: Option<SessionState>,
    /// Adversarial clients deviating from the masking protocol, if the
    /// simulation injects any (see [`SecureAggregator::with_deviation`]).
    deviation: Option<crate::adversary::AdversarySpec>,
    timings: SecureTimings,
}

impl SecureAggregator {
    /// Wraps `inner` in the session-cached secure pipeline for updates of
    /// `vector_len` parameters.  The TSA refuses to release an unmask for a
    /// buffer with fewer than `threshold` contributions
    /// (see [`recommended_threshold`]); `seed` makes the protocol run
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `vector_len == 0` or `threshold == 0`.
    pub fn new(inner: Box<dyn Aggregator>, vector_len: usize, threshold: usize, seed: u64) -> Self {
        Self::with_config(inner, simulation_config(vector_len, threshold), seed)
    }

    /// Like [`SecureAggregator::new`] but running the original per-update
    /// key-exchange protocol ([`crate::config::SecAggMode::AsyncSecAggPerUpdate`]).
    pub fn new_per_update(
        inner: Box<dyn Aggregator>,
        vector_len: usize,
        threshold: usize,
        seed: u64,
    ) -> Self {
        Self::with_config_per_update(inner, simulation_config(vector_len, threshold), seed)
    }

    /// Wraps `inner` with an explicit protocol configuration, for
    /// deployments needing a different group/scale trade-off (larger models,
    /// larger weighted aggregates) than [`SecureAggregator::new`]'s default.
    ///
    /// # Panics
    ///
    /// Panics if the config has no parameters or a zero threshold.
    pub(crate) fn with_config(inner: Box<dyn Aggregator>, config: SecAggConfig, seed: u64) -> Self {
        let mut agg = Self::with_config_per_update(inner, config, seed);
        agg.session = Some(SessionState::new(seed));
        agg
    }

    /// [`SecureAggregator::with_config`] in per-update mode.
    pub(crate) fn with_config_per_update(
        inner: Box<dyn Aggregator>,
        config: SecAggConfig,
        seed: u64,
    ) -> Self {
        assert!(config.vector_len > 0, "secure updates must have parameters");
        assert!(config.threshold > 0, "unmasking threshold must be positive");
        let tsa = Tsa::new(&config, derive_seed(b"papaya/tsa-hardware-key/", seed));
        let publication = tsa.publication();
        let host = UntrustedAggregator::new(&config);
        let rng = ChaCha20Rng::from_seed(derive_seed(b"papaya/secagg-clients/", seed));
        SecureAggregator {
            inner,
            config,
            tsa,
            publication,
            rng,
            host,
            weight_sum: 0.0,
            telemetry: SecureTelemetry::default(),
            session: None,
            deviation: None,
            timings: SecureTimings::default(),
        }
    }

    /// Injects SecAgg protocol deviations: clients the spec marks as
    /// malicious (and whose [`Malice`](crate::adversary::Malice) is a
    /// [`SecAggDeviation`](crate::adversary::Malice::SecAggDeviation))
    /// violate the masking protocol on upload — lying about their ratchet
    /// counter or double-applying their pad.  A spec without a deviation
    /// behavior is ignored.  Deviations are modeled for the session-cached
    /// protocol only (the per-update protocol has no client-controlled
    /// counter to lie about); this is a *simulation* hook for the
    /// attack-vs-defense matrix, never part of a production configuration.
    pub fn with_deviation(mut self, spec: crate::adversary::AdversarySpec) -> Self {
        if spec.deviation().is_some() {
            self.deviation = Some(spec);
        }
        self
    }

    fn sync_boundary(&mut self) {
        let stats = self.tsa.boundary_stats();
        self.telemetry.tee_bytes_in = stats.bytes_in;
        self.telemetry.tee_bytes_out = stats.bytes_out;
    }

    /// Builds the next mask plan for `client_id`, burning a ratchet counter.
    fn session_plan(&mut self, client_id: usize) -> MaskPlan {
        let session = session_state(&mut self.session);
        let kind = match session.session_keys.get(&client_id) {
            Some(key) => MaskPlanKind::Resumed { key: key.clone() },
            None => {
                let epoch = self.tsa.session_epoch();
                let context = match &session.handshake_context {
                    Some(context) if context.epoch() == epoch => Arc::clone(context),
                    _ => {
                        let context = Arc::new(HandshakeContext::new(
                            &self.config.dh_group,
                            self.tsa.session_init(),
                            self.publication.clone(),
                        ));
                        session.handshake_context = Some(Arc::clone(&context));
                        context
                    }
                };
                // Per-(client, epoch) deterministic handshake key: stable
                // within an epoch (a rejected first contact retries with the
                // same secret but a fresh counter), fresh across epochs.
                let mut info = [0u8; 16];
                info[..8].copy_from_slice(&(client_id as u64).to_be_bytes());
                info[8..].copy_from_slice(&epoch.to_be_bytes());
                MaskPlanKind::Handshake(HandshakePlan {
                    client_key_seed: session.client_master.mac(&info),
                    context,
                })
            }
        };
        let counter_slot = session.counters.entry(client_id).or_insert(0);
        let counter = *counter_slot;
        *counter_slot += 1;
        MaskPlan {
            counter,
            vector_len: self.config.vector_len,
            params: self.config.group_params(),
            kind,
        }
    }

    /// Takes the plan issued for `client_id` (or makes one on the spot) and
    /// computes its mask.
    fn consume_mask(&mut self, client_id: usize) -> (MaskPlan, PrecomputedMask) {
        let planned = session_state(&mut self.session).planned.remove(&client_id);
        let plan = planned.unwrap_or_else(|| self.session_plan(client_id));
        let session = session_state(&mut self.session);
        #[expect(
            clippy::disallowed_methods,
            reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
        )]
        let start = Instant::now();
        let pre = plan.compute(&mut session.scratch);
        let elapsed = start.elapsed().as_secs_f64();
        // The handshake's modexps dwarf the mask expansion, so a first
        // contact is charged entirely to handshakes (the TSA's half is
        // added where the session is established).
        match plan.kind {
            MaskPlanKind::Handshake(_) => self.timings.handshake_s += elapsed,
            MaskPlanKind::Resumed { .. } => self.timings.mask_s += elapsed,
        }
        (plan, pre)
    }

    /// Session-mode [`Aggregator::accumulate`].
    fn accumulate_session(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        let staleness = update.staleness(current_version);
        let weight = self.inner.update_weight(update.num_examples, staleness);
        let client_id = update.client_id;
        let deviation = self
            .deviation
            .filter(|spec| spec.is_malicious(client_id))
            .and_then(|spec| spec.deviation());
        let (plan, pre) = self.consume_mask(client_id);
        // Client side: scale by the metadata-derived weight exactly as the
        // clear buffer would (`f32` product), encode, apply the one-time
        // pad.
        let mut scaled = update.delta.clone();
        scaled.scale(weight as f32);
        #[expect(
            clippy::disallowed_methods,
            reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
        )]
        let start = Instant::now();
        let mut masked = self.config.codec.encode_vec(scaled.as_slice());
        masked.add_assign(&pre.mask);
        if deviation == Some(crate::adversary::DeviationKind::GarbageMask) {
            // A garbage-mask client pads twice: the TSA's unmask removes
            // one copy and the released aggregate keeps a full
            // pseudorandom pad — caught downstream as an out-of-range
            // release (the decode no longer matches the clear reference).
            masked.add_assign(&pre.mask);
        }
        self.timings.encode_s += start.elapsed().as_secs_f64();

        let outcome = self.inner.accumulate(update, current_version, now_s);
        // Cache accounting happens at consumption so hit/miss ordering is
        // the event order, identical at any training parallelism.
        match plan.kind {
            MaskPlanKind::Resumed { .. } => {
                self.telemetry.session_cache_hits += 1;
                self.telemetry.dh_exchanges_saved += 1;
            }
            MaskPlanKind::Handshake(_) => self.telemetry.session_cache_misses += 1,
        }
        if outcome.accepted() {
            if let Some(handshake) = pre.handshake {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
                )]
                let start = Instant::now();
                self.tsa
                    .establish_session(client_id as u64, &handshake.client_public);
                self.timings.handshake_s += start.elapsed().as_secs_f64();
                let session = session_state(&mut self.session);
                session.session_keys.insert(client_id, handshake.key);
            }
            #[expect(
                clippy::expect_used,
                reason = "codec and host share one deployment config by construction; a mismatch is a wiring bug"
            )]
            self.host
                .submit_masked(&masked)
                .expect("mask and update share the deployment group");
            let session = session_state(&mut self.session);
            // A wrong-counter client claims the *next* ratchet counter: the
            // TSA's monotone floor accepts a higher counter, expands a seed
            // the client's mask was not derived from, and the unmask
            // leaves residue — an out-of-range release, never a panic.
            // (Consistent lying keeps the floor at lie+1, so every later
            // lie from the same client clears the floor too.)
            let claimed_counter =
                if deviation == Some(crate::adversary::DeviationKind::WrongCounter) {
                    plan.counter + 1
                } else {
                    plan.counter
                };
            session.pending_refs.push(MaskRef {
                client_id: client_id as u64,
                counter: claimed_counter,
            });
            self.weight_sum += weight;
            self.telemetry.masked_updates += 1;
        } else {
            // The masked upload is dropped host-side.  For an established
            // session the TSA must burn the counter so the seed can never
            // be released; a rejected *first contact* established nothing —
            // no enclave state to pin, and the next participation simply
            // re-plans the handshake with a fresh counter.
            if matches!(plan.kind, MaskPlanKind::Resumed { .. }) {
                self.tsa
                    .revoke_session_counter(client_id as u64, plan.counter);
            }
            self.telemetry.masked_discarded += 1;
        }
        self.sync_boundary();
        outcome
    }

    /// Per-update-mode [`Aggregator::accumulate`] (the original protocol).
    fn accumulate_per_update(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        let staleness = update.staleness(current_version);
        let weight = self.inner.update_weight(update.num_examples, staleness);
        let mut scaled = update.delta.clone();
        scaled.scale(weight as f32);
        #[expect(
            clippy::disallowed_methods,
            reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
        )]
        let start = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "one message was requested on the line above; an empty batch is an internal invariant breach"
        )]
        let initial = self
            .tsa
            .prepare_initial_messages(1, &mut self.rng)
            .pop()
            .expect("one initial message");
        #[expect(
            clippy::expect_used,
            reason = "the simulated client verifies the publication it was just handed; rejection is a protocol wiring bug"
        )]
        let upload = SecAggClient::participate(
            scaled.as_slice(),
            &initial,
            &self.publication,
            &self.config,
            &mut self.rng,
        )
        .expect("simulated client validates its own TSA");
        self.timings.handshake_s += start.elapsed().as_secs_f64();

        let outcome = self.inner.accumulate(update, current_version, now_s);
        if outcome.accepted() {
            #[expect(
                clippy::disallowed_methods,
                reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
            )]
            let start = Instant::now();
            #[expect(
                clippy::expect_used,
                reason = "the exchange was created by this aggregator's own TSA moments ago; rejection is a protocol wiring bug"
            )]
            self.host
                .submit(upload, &mut self.tsa)
                .expect("fresh key-exchange completion is accepted");
            self.timings.encode_s += start.elapsed().as_secs_f64();
            self.weight_sum += weight;
            self.telemetry.masked_updates += 1;
        } else {
            // The masked upload is dropped host-side; tell the TSA to
            // forget the never-to-be-completed exchange so rejected clients
            // cannot pin enclave state forever.
            self.tsa.revoke_unused_exchange(initial.index);
            self.telemetry.masked_discarded += 1;
        }
        self.sync_boundary();
        outcome
    }
}

impl Aggregator for SecureAggregator {
    /// Runs the client protocol for the offered update (attestation check,
    /// key exchange, weight-scaled fixed-point encoding, masking), then
    /// offers the clear update to the inner stack.  Accepted uploads are
    /// folded into the host's masked sum and their seed forwarded into the
    /// TSA; one refused beneath this layer (only a stack built by hand
    /// refuses there) is dropped on the host without a seed forward.
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        assert_eq!(
            update.delta.len(),
            self.config.vector_len,
            "update dimensionality does not match the secure-aggregation config"
        );
        if self.session.is_some() {
            self.accumulate_session(update, current_version, now_s)
        } else {
            self.accumulate_per_update(update, current_version, now_s)
        }
    }

    /// Ready when the inner strategy is ready *and* the buffer holds at
    /// least the TSA threshold — below it the key release is refused and the
    /// buffer keeps accumulating (privacy outranks the release schedule).
    fn is_ready(&self, now_s: f64) -> bool {
        self.inner.is_ready(now_s) && self.host.accepted() >= self.config.threshold
    }

    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        if !self.is_ready(now_s) {
            return None;
        }
        let reference = self.inner.take(now_s)?;
        let accepted = self.host.accepted();
        #[expect(
            clippy::disallowed_methods,
            reason = "stage timing for SecureTimings; profiling only, never fingerprinted"
        )]
        let start = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "take() is gated on is_ready, which requires the TSA threshold; refusal is an internal invariant breach"
        )]
        let decoded = if let Some(session) = self.session.as_mut() {
            // One TSA round-trip for the whole buffer: the batch of 16-byte
            // mask references goes in, the aggregated unmask comes out.
            let refs = std::mem::take(&mut session.pending_refs);
            self.host
                .finalize_batch(&mut self.tsa, &refs)
                .expect("is_ready implies the TSA threshold is met")
        } else {
            self.host
                .finalize(&mut self.tsa)
                .expect("is_ready implies the TSA threshold is met")
        };
        self.timings.unmask_s += start.elapsed().as_secs_f64();
        self.telemetry.tsa_key_releases += 1;
        // Weighted average: the weight total is public metadata, so the
        // division happens in the clear — mirroring WeightedBuffer, an
        // all-zero-weight buffer releases an exact zero delta.
        let weight_sum = std::mem::replace(&mut self.weight_sum, 0.0);
        let released = if weight_sum > 0.0 {
            let mut sum = ParamVec::from_vec(decoded);
            sum.scale((1.0 / weight_sum) as f32);
            sum
        } else {
            ParamVec::zeros(self.config.vector_len)
        };
        let error = released
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(s, c)| (s - c).abs() as f64)
            .fold(0.0, f64::max);
        self.telemetry.quantization_error_trace.push((now_s, error));
        // Fixed-point error budget for this release: one half-quantum of
        // encode rounding per contribution (plus one for the decode),
        // scaled down by the weight total, plus `f32` representation noise
        // on the reference.  An error past the budget cannot come from
        // quantization — a client's weighted delta saturated at encode or
        // the aggregate wrapped the modulus — so flag the release instead
        // of letting a garbage delta pass silently.
        let reference_magnitude = reference
            .as_slice()
            .iter()
            .map(|v| v.abs() as f64)
            .fold(0.0, f64::max);
        let quanta = (accepted as f64 + 1.0) / self.config.codec.scale();
        let budget = if weight_sum > 0.0 {
            quanta / weight_sum + reference_magnitude * 1e-4 + 1e-9
        } else {
            0.0
        };
        if error > budget {
            self.telemetry.out_of_range_releases += 1;
        }
        self.sync_boundary();
        Some(released)
    }

    /// Drops the buffer on both sides of the TEE boundary **without** a key
    /// release (the Aggregator holding the masked sum died); the TSA never
    /// unmasks a partial buffer.  In session mode the crash also
    /// invalidates every cached session — the enclave's epoch key died with
    /// the process — so every client re-handshakes, and plans issued before
    /// the crash are dropped.
    fn reset(&mut self) -> usize {
        if self.host.accepted() > 0 {
            self.telemetry.buffers_dropped_unreleased += 1;
        }
        if let Some(session) = self.session.as_mut() {
            self.host.discard_masked_sum();
            self.tsa.invalidate_sessions();
            session.session_keys.clear();
            session.counters.clear();
            session.planned.clear();
            session.pending_refs.clear();
        } else {
            self.host.discard_buffer(&mut self.tsa);
        }
        self.weight_sum = 0.0;
        self.inner.reset()
    }

    fn goal(&self) -> usize {
        self.inner.goal()
    }

    fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    fn next_deadline_s(&self) -> Option<f64> {
        self.inner.next_deadline_s()
    }

    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        self.inner.update_weight(num_examples, staleness)
    }

    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry {
            secure: Some(&self.telemetry),
            secure_timings: Some(self.timings),
            ..self.inner.stack_telemetry()
        }
    }

    /// Issues the mask plan for `client_id`'s upcoming participation,
    /// burning its ratchet counter in event order; `accumulate` expands the
    /// mask from it.  A no-op in per-update mode, whose protocol draws from
    /// a shared RNG at upload time.
    fn plan_mask_precompute(&mut self, client_id: usize) {
        if self.session.is_none() {
            return;
        }
        let plan = self.session_plan(client_id);
        session_state(&mut self.session)
            .planned
            .insert(client_id, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedbuff::FedBuffAggregator;
    use crate::robust::{RobustAggregator, RobustConfig, RobustDefense};
    use crate::staleness::StalenessWeighting;

    impl SecureAggregator {
        /// The cumulative secure-pipeline telemetry.
        fn telemetry(&self) -> &SecureTelemetry {
            &self.telemetry
        }
    }

    fn update(id: usize, delta: Vec<f32>, examples: usize, start_version: u64) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(delta),
            num_examples: examples,
            start_version,
            train_loss: 0.0,
        }
    }

    fn secure_fedbuff(goal: usize, weighting: StalenessWeighting) -> SecureAggregator {
        SecureAggregator::new(
            Box::new(FedBuffAggregator::new(goal, weighting)),
            2,
            goal,
            0xC0DE,
        )
    }

    fn per_update_fedbuff(goal: usize, weighting: StalenessWeighting) -> SecureAggregator {
        SecureAggregator::new_per_update(
            Box::new(FedBuffAggregator::new(goal, weighting)),
            2,
            goal,
            0xC0DE,
        )
    }

    /// FedBuff (goal 2) behind a norm filter of bound 10, for a secure
    /// layer to wrap: the one stack shape in which an upload is refused
    /// beneath the secure layer.  The filter refuses [`oversized`].
    fn filtered_fedbuff() -> Box<dyn Aggregator> {
        Box::new(RobustAggregator::new(
            Box::new(FedBuffAggregator::new(2, StalenessWeighting::Constant)),
            RobustConfig::new(RobustDefense::NormFilter { max_norm: 10.0 }),
        ))
    }

    /// An update of norm 100√2, past the norm filter of [`filtered_fedbuff`].
    fn oversized(id: usize) -> ClientUpdate {
        update(id, vec![100.0, 100.0], 10, 0)
    }

    fn deviant_fedbuff(kind: crate::adversary::DeviationKind) -> SecureAggregator {
        secure_fedbuff(2, StalenessWeighting::Constant).with_deviation(
            crate::adversary::AdversarySpec::new(
                1.0,
                crate::adversary::Malice::SecAggDeviation { kind },
            ),
        )
    }

    #[test]
    fn wrong_counter_deviation_is_flagged_never_a_panic() {
        let mut agg = deviant_fedbuff(crate::adversary::DeviationKind::WrongCounter);
        agg.accumulate(update(0, vec![0.5, -0.25], 10, 0), 0, 0.0);
        agg.accumulate(update(1, vec![0.25, 0.125], 10, 0), 0, 0.0);
        let released = agg.take(0.0).expect("deviant buffers still release");
        assert!(released.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            agg.telemetry().out_of_range_releases,
            1,
            "mask residue must be caught by the error budget"
        );
        // Consistent liars clear the advanced TSA floor on the next buffer
        // too: the protocol keeps running, each garbage release flagged.
        agg.accumulate(update(0, vec![0.5, -0.25], 10, 1), 1, 1.0);
        agg.accumulate(update(1, vec![0.25, 0.125], 10, 1), 1, 1.0);
        assert!(agg.take(1.0).is_some());
        assert_eq!(agg.telemetry().out_of_range_releases, 2);
    }

    #[test]
    fn garbage_mask_deviation_is_flagged_never_a_panic() {
        let mut agg = deviant_fedbuff(crate::adversary::DeviationKind::GarbageMask);
        agg.accumulate(update(0, vec![0.5, -0.25], 10, 0), 0, 0.0);
        agg.accumulate(update(1, vec![0.25, 0.125], 10, 0), 0, 0.0);
        let released = agg.take(0.0).expect("deviant buffers still release");
        assert!(released.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            agg.telemetry().out_of_range_releases,
            1,
            "the surviving pad must be caught by the error budget"
        );
    }

    #[test]
    fn honest_cohort_with_a_deviant_minority_is_still_flagged() {
        // fraction 1.0 but only client ids the hash marks... use 0.5 and
        // find one honest + one deviant id so the release mixes both.
        let spec = crate::adversary::AdversarySpec::new(
            0.5,
            crate::adversary::Malice::SecAggDeviation {
                kind: crate::adversary::DeviationKind::GarbageMask,
            },
        );
        let honest = (0..100).find(|&id| !spec.is_malicious(id)).unwrap();
        let deviant = (0..100).find(|&id| spec.is_malicious(id)).unwrap();
        let mut agg = secure_fedbuff(2, StalenessWeighting::Constant).with_deviation(spec);
        agg.accumulate(update(honest, vec![0.5, -0.25], 10, 0), 0, 0.0);
        agg.accumulate(update(deviant, vec![0.25, 0.125], 10, 0), 0, 0.0);
        agg.take(0.0).expect("release proceeds");
        assert_eq!(agg.telemetry().out_of_range_releases, 1);
    }

    #[test]
    fn non_deviation_malice_never_arms_the_secure_hook() {
        let agg = secure_fedbuff(2, StalenessWeighting::Constant).with_deviation(
            crate::adversary::AdversarySpec::new(
                1.0,
                crate::adversary::Malice::SignFlip { scale: 1.0 },
            ),
        );
        assert!(agg.deviation.is_none(), "delta attacks live in the runtime");
    }

    #[test]
    fn secure_release_matches_clear_release_to_fixed_point_tolerance() {
        let mut clear = FedBuffAggregator::new(3, StalenessWeighting::PolynomialHalf);
        let mut secure = secure_fedbuff(3, StalenessWeighting::PolynomialHalf);
        let updates = [
            update(0, vec![0.25, -1.5], 10, 0),
            update(1, vec![1.125, 0.5], 30, 0),
            update(2, vec![-0.75, 2.0], 20, 1),
        ];
        for u in &updates {
            assert!(clear.accumulate(u.clone(), 2, 0.0).accepted());
            assert!(secure.accumulate(u.clone(), 2, 0.0).accepted());
        }
        let clear_out = clear.take(0.0).unwrap();
        let secure_out = secure.take(0.0).unwrap();
        for (c, s) in clear_out.as_slice().iter().zip(secure_out.as_slice()) {
            assert!((c - s).abs() < 1e-4, "clear {c} vs secure {s}");
        }
        let telemetry = secure.telemetry();
        assert_eq!(telemetry.masked_updates, 3);
        assert_eq!(telemetry.tsa_key_releases, 1);
        assert_eq!(telemetry.quantization_error_trace.len(), 1);
        assert!(telemetry.max_quantization_error() < 1e-4);
        assert!(telemetry.tee_bytes_in > 0 && telemetry.tee_bytes_out > 0);
    }

    #[test]
    fn secure_releases_are_deterministic_for_a_seed() {
        let run = || {
            let mut agg = secure_fedbuff(2, StalenessWeighting::Constant);
            agg.accumulate(update(0, vec![0.3, 0.7], 10, 0), 0, 0.0);
            agg.accumulate(update(1, vec![-0.1, 0.2], 20, 0), 0, 1.0);
            agg.take(1.0).unwrap()
        };
        assert_eq!(run().as_slice(), run().as_slice());
    }

    #[test]
    fn rejected_upload_is_discarded_masked_not_submitted() {
        for mut agg in [
            SecureAggregator::new(filtered_fedbuff(), 2, 2, 0xC0DE),
            SecureAggregator::new_per_update(filtered_fedbuff(), 2, 2, 0xC0DE),
        ] {
            // The norm filter beneath refuses the upload, and the masked
            // upload is dropped without a seed forward.
            let outcome = agg.accumulate(oversized(0), 0, 0.0);
            assert_eq!(outcome, AccumulateOutcome::RejectedByDefense);
            assert_eq!(agg.telemetry().masked_discarded, 1);
            assert_eq!(agg.telemetry().masked_updates, 0);
            assert_eq!(agg.tsa.processed_clients(), 0);
            assert_eq!(agg.host.accepted(), 0);
        }
    }

    #[test]
    fn reset_drops_masked_buffer_without_key_release() {
        let mut agg = secure_fedbuff(3, StalenessWeighting::Constant);
        assert!(agg
            .accumulate(update(0, vec![1.0, 1.0], 10, 0), 0, 0.0)
            .accepted());
        assert!(agg
            .accumulate(update(1, vec![2.0, 2.0], 10, 0), 0, 0.0)
            .accepted());
        assert_eq!(agg.reset(), 2);
        let telemetry = agg.telemetry();
        assert_eq!(telemetry.buffers_dropped_unreleased, 1);
        assert_eq!(telemetry.tsa_key_releases, 0);
        // The next buffer is uncontaminated.
        for i in 0..3 {
            agg.accumulate(update(10 + i, vec![4.0, -4.0], 10, 0), 0, 1.0);
        }
        let out = agg.take(1.0).unwrap();
        assert!((out.as_slice()[0] - 4.0).abs() < 1e-4, "{out:?}");
        assert_eq!(agg.telemetry().tsa_key_releases, 1);
        // Resetting an empty buffer does not count a dropped buffer.
        assert_eq!(agg.reset(), 0);
        assert_eq!(agg.telemetry().buffers_dropped_unreleased, 1);
    }

    #[test]
    fn below_threshold_deadline_release_is_blocked() {
        // A deadline FedBuff with threshold 2: the deadline passes with a
        // single buffered update, but the TSA refuses the key release, so
        // nothing moves and the buffered update survives for the next
        // arrival.
        let inner = Box::new(
            FedBuffAggregator::new(10, StalenessWeighting::Constant).with_round_deadline(60.0),
        );
        let mut agg = SecureAggregator::new(inner, 2, 2, 7);
        agg.accumulate(update(0, vec![1.0, 0.0], 10, 0), 0, 0.0);
        assert!(!agg.is_ready(1e6), "threshold must gate readiness");
        assert!(agg.take(1e6).is_none());
        assert_eq!(agg.buffered(), 1, "blocked release must not drain");
        // A second contribution satisfies the threshold.
        agg.accumulate(update(1, vec![0.0, 1.0], 10, 0), 0, 2.0);
        assert!(agg.is_ready(70.0));
        let out = agg.take(70.0).unwrap();
        assert!((out.as_slice()[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn all_zero_weight_buffer_releases_exact_zeros() {
        let mut agg = secure_fedbuff(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![3.0, -1.0], 0, 0), 0, 0.0);
        agg.accumulate(update(1, vec![5.0, 2.0], 0, 0), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn tee_traffic_per_client_is_independent_of_model_size() {
        let per_client = |dim: usize| {
            let inner = Box::new(FedBuffAggregator::new(2, StalenessWeighting::Constant));
            let mut agg = SecureAggregator::new(inner, dim, 2, 3);
            agg.accumulate(update(0, [0.1; 2].repeat(dim / 2), 10, 0), 0, 0.0);
            agg.accumulate(update(1, [0.2; 2].repeat(dim / 2), 10, 0), 0, 0.0);
            agg.take(0.0).unwrap();
            agg.telemetry().tee_bytes_in_per_client()
        };
        let small = per_client(4);
        let large = per_client(4096);
        assert!(small > 0.0);
        assert_eq!(small, large, "inbound TEE bytes must not scale with m");
    }

    #[test]
    fn out_of_range_aggregates_are_flagged_not_silent() {
        // A deliberately tiny group (±128 representable) so two in-range
        // contributions wrap the modulus when summed: the release must be
        // counted as out-of-range instead of passing silently.
        let inner = Box::new(FedBuffAggregator::new(2, StalenessWeighting::Constant));
        let mut config = SecAggConfig::insecure_fast(1, 2);
        config.codec = FixedPointCodec::new(GroupParams::new(1 << 16), 256.0);
        let mut agg = SecureAggregator::with_config(inner, config, 9);
        agg.accumulate(update(0, vec![100.0], 1, 0), 0, 0.0);
        agg.accumulate(update(1, vec![100.0], 1, 0), 0, 0.0);
        let released = agg.take(0.0).unwrap();
        assert_eq!(agg.telemetry().out_of_range_releases, 1);
        // The wrapped decode is nowhere near the clear average of 100.
        assert!((released.as_slice()[0] - 100.0).abs() > 1.0);

        // A healthy buffer afterwards is not flagged.
        agg.accumulate(update(2, vec![1.0], 1, 0), 0, 1.0);
        agg.accumulate(update(3, vec![2.0], 1, 0), 0, 1.0);
        let ok = agg.take(1.0).unwrap();
        assert!((ok.as_slice()[0] - 1.5).abs() < 1e-2);
        assert_eq!(agg.telemetry().out_of_range_releases, 1);
    }

    #[test]
    fn rejected_upload_releases_tsa_exchange_state() {
        let mut agg = SecureAggregator::new_per_update(filtered_fedbuff(), 2, 2, 0xC0DE);
        // Refused beneath the secure layer: the exchange must be revoked, so
        // the TSA holds no pending per-client state afterwards.
        agg.accumulate(oversized(0), 0, 0.0);
        assert_eq!(agg.tsa.pending_exchanges(), 0);
    }

    #[test]
    fn rejected_first_contact_pins_no_session_state_but_burns_its_counter() {
        let mut agg = SecureAggregator::new(filtered_fedbuff(), 2, 2, 0xC0DE);
        // A rejected first contact must not establish a session on either
        // side of the boundary...
        agg.accumulate(oversized(0), 0, 0.0);
        assert_eq!(agg.tsa.active_sessions(), 0);
        let session = agg.session.as_ref().unwrap();
        assert!(session.session_keys.is_empty());
        assert!(session.pending_refs.is_empty());
        // ...but its ratchet counter is burned, so the retry can never
        // reuse the rejected participation's mask seed.
        assert_eq!(session.counters[&0], 1);
        agg.accumulate(update(0, vec![1.0, 1.0], 10, 0), 0, 1.0);
        let session = agg.session.as_ref().unwrap();
        assert_eq!(session.counters[&0], 2);
        assert_eq!(
            session.pending_refs,
            vec![MaskRef {
                client_id: 0,
                counter: 1,
            }]
        );
        assert_eq!(agg.tsa.active_sessions(), 1);
    }

    #[test]
    fn rejected_resumed_participation_revokes_its_counter() {
        let mut agg = SecureAggregator::new(filtered_fedbuff(), 2, 2, 0xC0DE);
        // Establish client 0's session with an accepted first contact.
        agg.accumulate(update(0, vec![1.0, 1.0], 10, 0), 0, 0.0);
        assert_eq!(agg.telemetry().session_cache_misses, 1);
        // Its next participation is rejected: the cached session survives,
        // but the TSA burns the counter so the seed can never be released.
        agg.accumulate(oversized(0), 0, 1.0);
        assert_eq!(agg.telemetry().session_cache_hits, 1);
        assert_eq!(agg.tsa.active_sessions(), 1);
        // The pending counter 0 of the open buffer must still release.
        agg.accumulate(update(1, vec![3.0, 3.0], 10, 0), 0, 2.0);
        let out = agg.take(2.0).unwrap();
        assert!((out.as_slice()[0] - 2.0).abs() < 1e-4, "{out:?}");
    }

    #[test]
    fn session_cache_amortizes_handshakes_across_buffers() {
        let mut agg = secure_fedbuff(2, StalenessWeighting::Constant);
        for round in 0..4u64 {
            agg.accumulate(update(0, vec![0.5, 0.5], 10, round), round, round as f64);
            agg.accumulate(update(1, vec![1.5, 1.5], 10, round), round, round as f64);
            assert!(agg.take(round as f64).is_some());
        }
        let telemetry = agg.telemetry();
        // 2 distinct clients handshake once each; the other 6 masked
        // updates ride the cached sessions.
        assert_eq!(telemetry.session_cache_misses, 2);
        assert_eq!(telemetry.session_cache_hits, 6);
        assert_eq!(telemetry.dh_exchanges_saved, 6);
        assert_eq!(telemetry.tsa_key_releases, 4);
        assert_eq!(agg.tsa.active_sessions(), 2);
    }

    #[test]
    fn session_and_per_update_releases_are_bit_identical() {
        // Masks cancel exactly in both protocol modes, so the released
        // aggregates must match bit for bit, not just to tolerance.
        let mut session = secure_fedbuff(3, StalenessWeighting::PolynomialHalf);
        let mut per_update = per_update_fedbuff(3, StalenessWeighting::PolynomialHalf);
        let updates = [
            update(0, vec![0.25, -1.5], 10, 0),
            update(1, vec![1.125, 0.5], 30, 0),
            update(2, vec![-0.75, 2.0], 20, 1),
        ];
        for u in &updates {
            assert!(session.accumulate(u.clone(), 2, 0.0).accepted());
            assert!(per_update.accumulate(u.clone(), 2, 0.0).accepted());
        }
        let a = session.take(0.0).unwrap();
        let b = per_update.take(0.0).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn reset_invalidates_sessions_and_forces_rehandshakes() {
        let mut agg = secure_fedbuff(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![1.0, 1.0], 10, 0), 0, 0.0);
        agg.accumulate(update(1, vec![1.0, 1.0], 10, 0), 0, 0.0);
        assert_eq!(agg.tsa.active_sessions(), 2);
        let epoch_before = agg.tsa.session_epoch();
        agg.reset();
        assert_eq!(agg.tsa.active_sessions(), 0);
        assert_eq!(agg.tsa.session_epoch(), epoch_before + 1);
        assert_eq!(agg.telemetry().buffers_dropped_unreleased, 1);
        assert_eq!(agg.telemetry().tsa_key_releases, 0);
        // The same clients handshake again in the new epoch.
        agg.accumulate(update(0, vec![2.0, 0.0], 10, 0), 0, 1.0);
        agg.accumulate(update(1, vec![0.0, 2.0], 10, 0), 0, 1.0);
        assert_eq!(agg.telemetry().session_cache_misses, 4);
        assert_eq!(agg.telemetry().session_cache_hits, 0);
        let out = agg.take(1.0).unwrap();
        assert!((out.as_slice()[0] - 1.0).abs() < 1e-4, "{out:?}");
    }

    #[test]
    fn recommended_threshold_follows_the_release_pattern() {
        assert_eq!(
            recommended_threshold(&TaskConfig::async_task("a", 100, 25)),
            25
        );
        assert_eq!(
            recommended_threshold(&TaskConfig::sync_task("s", 130, 0.3)),
            100
        );
        assert_eq!(
            recommended_threshold(&TaskConfig::timed_hybrid_task("h", 10, 4, 60.0)),
            1
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality does not match")]
    fn mismatched_dimensions_panic() {
        let mut agg = secure_fedbuff(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![1.0], 10, 0), 0, 0.0);
    }
}
