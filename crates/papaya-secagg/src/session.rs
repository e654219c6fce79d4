//! Session-cached key exchange and mask plans.
//!
//! The per-update protocol in `crate::client` pays four group
//! exponentiations per masked update (two key generations, two shared
//! secrets).  At production scale the same device participates in many
//! aggregation rounds, so PAPAYA amortizes the handshake: the first
//! participation establishes a Diffie–Hellman session with the TSA's
//! per-epoch key, and every later participation *ratchets* a fresh one-time
//! mask seed from the established shared secret and a strictly increasing
//! participation counter.  The exponentiation cost drops from `4·K` per `K`
//! updates to `3·C` for `C` distinct clients (client keygen, client shared
//! secret, TSA shared secret) plus one TSA key generation per epoch.
//!
//! Security invariants preserved from the per-update protocol:
//!
//! * **One seed per mask.**  `RatchetKey::seed` is called at most once per
//!   `(secret, counter)` pair; the TSA enforces a monotone counter
//!   floor per session and the host burns a counter per planned
//!   participation, even when the upload is later rejected.
//! * **Attestation before secrets.**  A session is only established after
//!   the client verifies the TSA's quote over its epoch public key, exactly
//!   as in the per-update flow.
//! * **Invalidation.**  Publishing a new trusted binary, revoking an unused
//!   exchange, or an aggregator crash/`reset` bumps the TSA epoch and clears
//!   every cached session, forcing fresh handshakes.
//!
//! The [`MaskPlan`]/[`PrecomputedMask`] pair makes the expensive half of a
//! participation *pure*: a plan captures `(session secret or handshake
//! material, counter, vector length, group)`, and [`MaskPlan::compute`] is a
//! deterministic function of the plan alone.  The simulator issues a plan at
//! selection time, burning its counter in event order, and expands the mask
//! from it when the upload is accumulated — bit-identical results at any
//! thread count.

use crate::attestation::{verify_quote, AttestationQuote, TsaPublication};
use crate::group::{GroupParams, GroupVec};
use crate::mask::{expand_mask_into, MaskSeed, SEED_LEN};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::dh::{DhGroup, DhPrecomputedPublic, DhPrivateKey, DhPublicKey, SharedSecret};
use papaya_crypto::hmac::HmacKey;
use std::fmt;
use std::sync::Arc;

/// An established session's shared secret in the form the ratchet uses it:
/// as an HMAC key with its pad blocks already absorbed, so each
/// participation's `seed` costs two SHA-256
/// compressions instead of four.  Equivalent to the secret for every
/// purpose (it derives every seed of the session), and handled like it:
/// `Debug` prints no key material.
#[derive(Clone, PartialEq, Eq)]
pub struct RatchetKey(HmacKey);

impl fmt::Debug for RatchetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RatchetKey").finish_non_exhaustive()
    }
}

impl RatchetKey {
    /// Keys the ratchet with a freshly established shared secret.
    pub(crate) fn new(secret: &SharedSecret) -> Self {
        RatchetKey(HmacKey::from(secret))
    }

    /// Derives the one-time mask seed of participation `counter`: the first
    /// [`SEED_LEN`] bytes of
    /// `HMAC-SHA256(secret, "papaya/session-mask/" || counter)`.
    ///
    /// Both the client (masking) and the TSA (unmasking) hold the session's
    /// key and derive this exact value, so the masks cancel; distinct
    /// counters yield independent seeds, so no pad is ever reused while the
    /// counter discipline holds.
    pub(crate) fn seed(&self, counter: u64) -> MaskSeed {
        const LABEL: &[u8; 20] = b"papaya/session-mask/";
        let mut message = [0u8; LABEL.len() + 8];
        message[..LABEL.len()].copy_from_slice(LABEL);
        message[LABEL.len()..].copy_from_slice(&counter.to_be_bytes());
        let digest = self.0.mac(&message);
        let mut seed = [0u8; SEED_LEN];
        seed.copy_from_slice(&digest[..SEED_LEN]);
        seed
    }
}

/// The TSA's per-epoch session offer: its Diffie–Hellman public key for the
/// current epoch and an attestation quote over it.  Unlike
/// [`crate::protocol::KeyExchangeInitialMessage`] this is **not** single-use
/// — every client establishing a session in the epoch completes against the
/// same key, so the TSA crosses the boundary once per epoch instead of once
/// per update.
#[derive(Clone, Debug)]
pub struct SessionInitMessage {
    /// Epoch this key belongs to; bumped on every invalidation.
    pub(crate) epoch: u64,
    /// The TSA's epoch public key.
    pub(crate) tsa_public: DhPublicKey,
    /// Quote binding the binary, the parameters, and the epoch public key.
    pub(crate) quote: AttestationQuote,
}

/// A compact reference to one session-mode masked update: which client's
/// session and which ratchet counter produced its mask.  This is all the
/// TSA needs to regenerate the mask — 16 bytes per update instead of a
/// per-update completing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MaskRef {
    /// The session owner's stable client id.
    pub client_id: u64,
    /// The ratchet counter of this participation.
    pub counter: u64,
}

impl MaskRef {
    /// Serialized size in bytes, for boundary accounting.
    pub(crate) const BYTE_LEN: usize = 16;
}

/// The client half of a freshly established session: the public key to
/// forward to the TSA and the ratchet key to cache.
#[derive(Clone, Debug)]
pub struct SessionHandshake {
    /// The client's session public key (crosses into the TSA once).
    pub client_public: DhPublicKey,
    /// The established shared secret, keyed for the ratchet.
    pub key: RatchetKey,
}

/// What kind of work a [`MaskPlan`] requires.
#[derive(Clone, Debug)]
pub enum MaskPlanKind {
    /// A cached session exists: only the ratchet + mask expansion run.
    Resumed {
        /// The cached session's ratchet key.
        key: RatchetKey,
    },
    /// First contact (or post-invalidation): the full handshake runs first.
    Handshake(HandshakePlan),
}

/// Everything a first-contact plan needs to establish the session: the one
/// per-client input, and a shared handle on everything else.
#[derive(Clone, Debug)]
pub struct HandshakePlan {
    /// Seed of the client's deterministic session key RNG.
    pub client_key_seed: [u8; 32],
    /// What every first contact of the epoch has in common.
    pub context: Arc<HandshakeContext>,
}

/// The epoch-invariant half of a first contact: the deployment's
/// Diffie–Hellman group, the TSA's epoch offer, the publication its quote is
/// verified against, and a fixed-base window table for the epoch key (every
/// handshake of an epoch exponentiates the same `tsa_public`).  The planner
/// builds one per TSA epoch and every [`HandshakePlan`] of the epoch shares
/// it, so issuing a plan copies 40 bytes, not the offer and the publication.
#[derive(Debug)]
pub struct HandshakeContext {
    group: DhGroup,
    init: SessionInitMessage,
    publication: TsaPublication,
    tsa_precomputed: DhPrecomputedPublic,
}

impl HandshakeContext {
    /// Gathers an epoch's handshake material and builds the fixed-base
    /// table for the offered key (~1 150 group multiplications, repaid after
    /// a handful of handshakes).
    pub fn new(group: &DhGroup, init: SessionInitMessage, publication: TsaPublication) -> Self {
        HandshakeContext {
            group: group.clone(),
            tsa_precomputed: group.precompute_public(&init.tsa_public),
            init,
            publication,
        }
    }

    /// The TSA epoch this material belongs to.
    pub fn epoch(&self) -> u64 {
        self.init.epoch
    }
}

/// A self-contained description of one participation's mask work, pure in
/// its fields: computing it twice yields bit-identical results.
#[derive(Clone, Debug)]
pub struct MaskPlan {
    /// The ratchet counter burned for this participation.
    pub counter: u64,
    /// Mask length (the model's flattened parameter count).
    pub vector_len: usize,
    /// The masking group.
    pub params: GroupParams,
    /// Resumed session or full handshake.
    pub kind: MaskPlanKind,
}

/// The result of [`MaskPlan::compute`]: the expanded mask and, for a
/// first-contact plan, the handshake to install in the caches.
#[derive(Clone, Debug)]
pub struct PrecomputedMask {
    /// The expanded one-time pad.
    pub mask: GroupVec,
    /// Present when the plan performed a handshake.
    pub handshake: Option<SessionHandshake>,
}

/// A reusable expansion buffer: [`MaskPlan::compute`] expands the pad into
/// it and moves it into the [`PrecomputedMask`], and
/// [`recycle`](MaskScratch::recycle) hands it back once the masked upload is
/// submitted, so a stream of masks allocates no buffer after the first.
#[derive(Debug, Default)]
pub struct MaskScratch {
    /// The staging buffer; keeps its capacity across computations.
    pub(crate) values: Vec<u64>,
}

impl MaskScratch {
    /// Takes `pad`'s buffer back for the next [`MaskPlan::compute`].
    pub fn recycle(&mut self, pad: GroupVec) {
        self.values = pad.into_values();
    }
}

/// Runs the client side of a session establishment: verifies the TSA's
/// quote, derives the client's session key from `key_seed`, and completes
/// the exchange against the TSA's epoch public key by plain exponentiation.
/// A [`HandshakePlan`] runs the same steps against its context's fixed-base
/// table and derives the bit-identical key.
///
/// # Panics
///
/// Panics when the attestation quote does not verify — the client must not
/// derive any secret against an unattested key, mirroring the per-update
/// client's abort.
pub fn client_handshake(
    group: &DhGroup,
    key_seed: &[u8; 32],
    init: &SessionInitMessage,
    publication: &TsaPublication,
) -> SessionHandshake {
    handshake_inner(group, key_seed, init, publication, None)
}

/// Shared handshake body; when a fixed-base table for the TSA's epoch key is
/// supplied the completing exponentiation skips every squaring, with
/// bit-identical output.
fn handshake_inner(
    group: &DhGroup,
    key_seed: &[u8; 32],
    init: &SessionInitMessage,
    publication: &TsaPublication,
    tsa_precomputed: Option<&DhPrecomputedPublic>,
) -> SessionHandshake {
    #[expect(
        clippy::expect_used,
        reason = "a failed attestation means simulated-protocol wiring is broken; continuing would mask a security-model bug"
    )]
    verify_quote(publication, &init.quote, &init.tsa_public.to_byte_array())
        .expect("TSA attestation failed; refusing to establish a session");
    let mut rng = ChaCha20Rng::from_seed(*key_seed);
    let client_key = DhPrivateKey::generate(group, &mut rng);
    let secret = match tsa_precomputed {
        Some(pre) => {
            debug_assert_eq!(pre.public_key(), init.tsa_public, "table/offer mismatch");
            client_key.shared_secret_precomputed(pre)
        }
        None => client_key.shared_secret(&init.tsa_public),
    };
    SessionHandshake {
        client_public: client_key.public_key(),
        key: RatchetKey::new(&secret),
    }
}

impl MaskPlan {
    /// Executes the plan: handshake if needed, ratchet, mask expansion.
    /// Deterministic in the plan's fields.
    pub fn compute(&self, scratch: &mut MaskScratch) -> PrecomputedMask {
        let (seed, handshake) = match &self.kind {
            MaskPlanKind::Resumed { key } => (key.seed(self.counter), None),
            MaskPlanKind::Handshake(plan) => {
                let context = &*plan.context;
                let handshake = handshake_inner(
                    &context.group,
                    &plan.client_key_seed,
                    &context.init,
                    &context.publication,
                    Some(&context.tsa_precomputed),
                );
                (handshake.key.seed(self.counter), Some(handshake))
            }
        };
        expand_mask_into(&seed, self.params, self.vector_len, &mut scratch.values);
        PrecomputedMask {
            mask: GroupVec::from_reduced(self.params, std::mem::take(&mut scratch.values)),
            handshake,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::expand_mask;
    use crate::protocol::SecAggConfig;
    use crate::tsa::Tsa;

    #[test]
    fn ratchet_seed_is_deterministic_and_counter_separated() {
        // Proptest-style sweep: across many secrets and counters, the same
        // (secret, counter) always yields the same seed and no two distinct
        // counters ever collide — counters never reuse a pad.
        let mut rng = ChaCha20Rng::from_seed([0x51u8; 32]);
        for _ in 0..32 {
            let mut secret = [0u8; 32];
            rng.fill_bytes(&mut secret);
            let mut seen = std::collections::BTreeSet::new();
            for counter in 0..64u64 {
                let seed = RatchetKey::new(&SharedSecret::from(secret)).seed(counter);
                assert_eq!(
                    seed,
                    RatchetKey::new(&SharedSecret::from(secret)).seed(counter)
                );
                assert!(seen.insert(seed), "counter {counter} reused a seed");
            }
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let key = RatchetKey::new(&SharedSecret::from([7u8; 32]));
        assert_eq!(format!("{key:?}"), "RatchetKey { .. }");
        let resumed = MaskPlanKind::Resumed { key };
        assert_eq!(format!("{resumed:?}"), "Resumed { key: RatchetKey { .. } }");
    }

    #[test]
    fn distinct_secrets_give_distinct_seeds() {
        let a = RatchetKey::new(&SharedSecret::from([1u8; 32])).seed(7);
        let b = RatchetKey::new(&SharedSecret::from([2u8; 32])).seed(7);
        assert_ne!(a, b);
    }

    #[test]
    fn ratchet_key_matches_the_one_shot_hmac() {
        // The key state is an optimisation of, not a change to, the ratchet:
        // every seed equals the definition spelled out with `hmac_sha256`.
        let mut rng = ChaCha20Rng::from_seed([0x52u8; 32]);
        for _ in 0..16 {
            let mut secret = [0u8; 32];
            rng.fill_bytes(&mut secret);
            let key = RatchetKey::new(&SharedSecret::from(secret));
            for counter in [0u64, 1, 255, 256, u64::MAX] {
                let mut message = b"papaya/session-mask/".to_vec();
                message.extend_from_slice(&counter.to_be_bytes());
                let digest = papaya_crypto::hmac::hmac_sha256(&secret, &message);
                assert_eq!(key.seed(counter), digest[..SEED_LEN]);
            }
        }
    }

    #[test]
    fn resumed_plan_mask_equals_fresh_handshake_mask() {
        // The session-cache correctness core: for the same (secret, counter)
        // a resumed plan and a handshake plan expand the identical mask.
        let config = SecAggConfig::insecure_fast(64, 2);
        let mut tsa = Tsa::new(&config, [0x21u8; 32]);
        let publication = tsa.publication();
        let init = tsa.session_init();
        let key_seed = [0x33u8; 32];
        let handshake_plan = MaskPlan {
            counter: 5,
            vector_len: 64,
            params: config.group_params(),
            kind: MaskPlanKind::Handshake(HandshakePlan {
                client_key_seed: key_seed,
                context: Arc::new(HandshakeContext::new(
                    &config.dh_group,
                    init.clone(),
                    publication.clone(),
                )),
            }),
        };
        let mut scratch = MaskScratch::default();
        let fresh = handshake_plan.compute(&mut scratch);

        // The plan's fixed-base exponentiation must be indistinguishable
        // from the plain one: same installed key, same client public key.
        let plain = client_handshake(&config.dh_group, &key_seed, &init, &publication);
        let installed = fresh.handshake.as_ref().expect("handshake ran");
        assert_eq!(installed.key, plain.key);
        assert_eq!(installed.client_public, plain.client_public);

        let key = installed.key.clone();
        let resumed_plan = MaskPlan {
            counter: 5,
            vector_len: 64,
            params: config.group_params(),
            kind: MaskPlanKind::Resumed { key: key.clone() },
        };
        let resumed = resumed_plan.compute(&mut scratch);
        assert_eq!(fresh.mask, resumed.mask);
        assert!(resumed.handshake.is_none());
        // And both equal the direct expansion of the ratcheted seed.
        let direct = expand_mask(&key.seed(5), config.group_params(), 64);
        assert_eq!(resumed.mask, direct);
    }

    #[test]
    fn compute_is_pure_across_scratch_reuse_and_instances() {
        let config = SecAggConfig::insecure_fast(32, 1);
        let plan = MaskPlan {
            counter: 3,
            vector_len: 32,
            params: config.group_params(),
            kind: MaskPlanKind::Resumed {
                key: RatchetKey::new(&SharedSecret::from([7u8; 32])),
            },
        };
        let mut a = MaskScratch::default();
        let mut b = MaskScratch {
            values: vec![99; 1000],
        };
        assert_eq!(plan.compute(&mut a).mask, plan.compute(&mut b).mask);
        assert_eq!(plan.compute(&mut a).mask, plan.compute(&mut a).mask);
    }

    #[test]
    fn compute_expands_into_a_recycled_buffer() {
        let config = SecAggConfig::insecure_fast(32, 1);
        let plan = MaskPlan {
            counter: 5,
            vector_len: 32,
            params: config.group_params(),
            kind: MaskPlanKind::Resumed {
                key: RatchetKey::new(&SharedSecret::from([8u8; 32])),
            },
        };
        let mut scratch = MaskScratch::default();
        let first = plan.compute(&mut scratch).mask;
        let (buffer, reference) = (first.values().as_ptr(), first.clone());
        scratch.recycle(first);
        let again = plan.compute(&mut scratch).mask;
        assert_eq!(again, reference);
        assert_eq!(
            again.values().as_ptr(),
            buffer,
            "the recycled buffer was not reused"
        );
    }

    #[test]
    #[should_panic(expected = "attestation failed")]
    fn handshake_refuses_unattested_key() {
        let config = SecAggConfig::insecure_fast(8, 1);
        let mut tsa = Tsa::new(&config, [0x44u8; 32]);
        let mut publication = tsa.publication();
        let init = tsa.session_init();
        publication.expected_measurement = [0u8; 32];
        let _ = client_handshake(&config.dh_group, &[1u8; 32], &init, &publication);
    }

    #[test]
    fn mask_ref_byte_len_matches_fields() {
        let r = MaskRef {
            client_id: 1,
            counter: 2,
        };
        assert_eq!(
            MaskRef::BYTE_LEN,
            std::mem::size_of_val(&r.client_id) + std::mem::size_of_val(&r.counter)
        );
    }
}
