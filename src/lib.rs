//! Umbrella crate for the PAPAYA reproduction.
//!
//! Re-exports the workspace crates so the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/` can use
//! a single dependency.  Library users should depend on the individual
//! crates directly:
//!
//! * [`papaya_core`] — FedBuff, synchronous rounds, server optimizers;
//! * [`papaya_sim`] — the discrete-event system simulator;
//! * [`papaya_secagg`] — asynchronous secure aggregation;
//! * [`papaya_crypto`] — the cryptographic primitives;
//! * [`papaya_data`] — synthetic populations and datasets;
//! * [`papaya_nn`] / [`papaya_lm`] — flat parameter vectors and the
//!   character-level LSTM language model.

#![forbid(unsafe_code)]

pub use papaya_core;
pub use papaya_crypto;
pub use papaya_data;
pub use papaya_lm;
pub use papaya_nn;
pub use papaya_secagg;
pub use papaya_sim;
