//! Cryptographic primitives used by PAPAYA's asynchronous secure aggregation.
//!
//! The PAPAYA paper (Appendices A–C) relies on a handful of standard
//! primitives: a Diffie–Hellman key exchange to establish a secure virtual
//! channel between each client and the Trusted Secure Aggregator (TSA), a
//! cryptographically secure PRNG to expand a 16-byte seed into an
//! as-large-as-the-model additive one-time pad, a MAC'd symmetric encryption
//! of the seed, and a Merkle-tree *verifiable log* used to audit updates to
//! the trusted binary.
//!
//! Everything in this crate is implemented from scratch on top of the Rust
//! standard library (plus `rand` for entropy) so that the reproduction has no
//! external cryptography dependencies.  The implementations follow the
//! published specifications (FIPS 180-4 for SHA-256, RFC 2104 for HMAC,
//! RFC 8439 for ChaCha20, RFC 3526 for the MODP Diffie–Hellman group) and are
//! validated against published test vectors in the unit tests.
//!
//! The modulus picks the modular multiplication body, with no switch: the
//! simulator's 256-bit group, `2^256 − c` with a one-limb `c`, multiplies
//! and reduces by folding by `c`, and every other modulus (RFC 3526 group
//! 14 among them) runs CIOS Montgomery multiplication.  Both give the same
//! residues; see [`bignum::Montgomery`].
//!
//! On x86-64, SHA-256 compresses on the CPU's SHA extensions when it has
//! them, and [`ChaCha20Rng`](chacha20::ChaCha20Rng) computes its keystream
//! eight blocks at a time: in AVX2 when the CPU has it, else as two
//! four-block SSE2 calls.  The CPU decides; there is no switch.  Every
//! digest and keystream byte is the same as from the portable kernels,
//! which stay as the reference the differential tests compare against and
//! as the only path on other CPUs.  Those three private modules are this
//! crate's only `unsafe` code: it denies it everywhere else.
//!
//! **Scope note:** these primitives are written for protocol correctness and
//! reproducibility of the paper's experiments, not as hardened production
//! cryptography (no constant-time guarantees, no side-channel hardening).
//!
//! # Example
//!
//! ```
//! use papaya_crypto::dh::{DhGroup, DhPrivateKey};
//! use papaya_crypto::chacha20::ChaCha20Rng;
//!
//! // Two parties agree on a shared secret over an untrusted channel.
//! let group = DhGroup::rfc3526_2048();
//! let mut rng = ChaCha20Rng::from_seed([7u8; 32]);
//! let alice = DhPrivateKey::generate(&group, &mut rng);
//! let bob = DhPrivateKey::generate(&group, &mut rng);
//! let s1 = alice.shared_secret(&bob.public_key());
//! let s2 = bob.shared_secret(&alice.public_key());
//! assert!(s1 == s2);
//! ```

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod dh;
pub mod hmac;
pub mod merkle;
pub mod sha256;
