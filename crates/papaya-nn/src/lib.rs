//! Flat parameter vectors and weight initialisation for federated
//! on-device training.
//!
//! Federated learning moves models and model deltas around as flat vectors:
//! clients upload them, secure aggregation masks them, and server
//! optimizers step along them.  This crate holds that representation:
//!
//! * [`params::ParamVec`] — a flat `f32` vector with the arithmetic and
//!   byte (de)serialization the rest of the stack needs; every workload
//!   runs on it;
//! * [`init`] — seeded uniform and Xavier-uniform draws, with which
//!   `papaya-lm`'s `CharLstm` initialises its weights.
//!
//! # Example
//!
//! ```
//! use papaya_nn::params::ParamVec;
//!
//! let global = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
//! let mut trained = global.clone();
//! trained.add_scaled(&ParamVec::from_vec(vec![0.5, -1.0, 0.0]), 2.0);
//! let delta = trained.sub(&global);
//! assert_eq!(delta.as_slice(), &[1.0, -2.0, 0.0]);
//! assert_eq!(ParamVec::from_bytes(&delta.to_bytes()), delta);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod init;
pub mod params;

pub use params::ParamVec;
