//! Asynchronous Secure Aggregation (Section 5 and Appendices A–D of PAPAYA).
//!
//! In an honest-but-curious threat model, secure aggregation lets the server
//! learn only the *sum* of client model updates, never an individual update.
//! SMPC-based protocols need synchronized cohorts, which is incompatible with
//! asynchronous FL; PAPAYA instead relies on a Trusted Execution Environment
//! hosting a **Trusted Secure Aggregator (TSA)**:
//!
//! 1. the TSA prepares Diffie–Hellman *initial messages* and attestation
//!    quotes in advance;
//! 2. a participating client validates the attestation (and the verifiable
//!    log entry for the trusted binary), completes the key exchange, samples
//!    a random seed, masks its update with the PRNG expansion of that seed,
//!    sends the *masked update* to the untrusted aggregator, and the
//!    *encrypted seed* to the TSA;
//! 3. the untrusted aggregator incrementally sums masked updates;
//! 4. once the aggregation goal is reached, the TSA — which summed the masks
//!    regenerated from the seeds — releases the aggregated unmask (only if at
//!    least `t` clients contributed);
//! 5. the aggregator subtracts the unmask and obtains the exact sum.
//!
//! Only the 16-byte seeds and the single unmask vector cross the host↔TEE
//! boundary, so the traffic is `O(K + m)` rather than the naive `O(K·m)`
//! (Figure 6); [`cost`] models that boundary traffic.
//!
//! The TEE itself is simulated: [`tsa::Tsa`] is an in-process object whose
//! "attestation" is an HMAC signature from a simulated hardware key.  The
//! protocol logic, message flow, and failure handling are faithful to the
//! paper's Appendix B/C.
//!
//! # Example: end-to-end aggregation of three clients
//!
//! ```
//! use papaya_secagg::fixed_point::FixedPointCodec;
//! use papaya_secagg::group::GroupParams;
//! use papaya_secagg::{SecAggClient, SecAggConfig, Tsa, UntrustedAggregator};
//! use papaya_crypto::chacha20::ChaCha20Rng;
//!
//! let config = SecAggConfig::insecure_fast(4, 3); // 4-element vectors, threshold 3
//! let mut tsa = Tsa::new(&config, [7u8; 32]);
//! let publication = tsa.publication();
//! let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
//! let initial = tsa.prepare_initial_messages(3, &mut rng);
//!
//! let mut aggregator = UntrustedAggregator::new(&config);
//! for (i, init) in initial.into_iter().enumerate() {
//!     let update = vec![0.5 * (i as f32 + 1.0); 4];
//!     let msg = SecAggClient::participate(&update, &init, &publication, &config, &mut rng)
//!         .expect("attestation verifies");
//!     aggregator.submit(msg, &mut tsa).expect("accepted");
//! }
//! let sum = aggregator.finalize(&mut tsa).expect("threshold met");
//! assert!((sum[0] - 3.0).abs() < 1e-3); // 0.5 + 1.0 + 1.5
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod attestation;
pub mod client;
pub mod cost;
pub mod fixed_point;
pub mod group;
pub mod mask;
pub mod protocol;
pub mod server;
pub mod session;
pub mod tsa;

pub use attestation::{AttestationQuote, TrustedBinary, TsaPublication};
pub use client::{ClientError, SecAggClient};
pub use cost::TeeBoundaryCostModel;
pub use fixed_point::FixedPointCodec;
pub use group::{GroupParams, GroupVec};
pub use protocol::{ClientUploadMessage, KeyExchangeInitialMessage, SecAggConfig};
pub use server::{AggregatorError, UntrustedAggregator};
pub use session::{
    client_handshake, HandshakeContext, HandshakePlan, MaskPlan, MaskPlanKind, MaskRef,
    MaskScratch, PrecomputedMask, RatchetKey, SessionHandshake, SessionInitMessage,
};
pub use tsa::{Tsa, TsaError};
