//! Synthetic federated populations and datasets.
//!
//! The PAPAYA evaluation runs on ~100 million real Android devices whose
//! execution times span more than two orders of magnitude (Figure 2) and
//! whose per-device example counts are heavy-tailed and *positively
//! correlated* with execution time (Figure 11).  This crate builds synthetic
//! populations with exactly those statistical properties, plus a small
//! non-IID character-level text corpus for the language-model experiments.
//!
//! * [`population`] — device profiles: speed, example count, dropout
//!   probability, and the execution-time model.
//! * [`text`] — per-client synthetic text with client-specific topic mixtures
//!   (non-IID), tokenized at the character level.
//! * [`dataset`] — federated dataset containers with train/val/test splits.
//! * [`stats`] — percentiles, histograms, the two-sample
//!   Kolmogorov–Smirnov test used in Section 7.4, and Box–Muller: the
//!   scalar transform and a batched kernel that computes it from IEEE
//!   basic operations and equals the scalar one's `f32` bit for bit.
//! * [`math`] — `f32` `exp`, `tanh` and `ln` from IEEE basic operations
//!   only, so that the language model's bits do not depend on the host's
//!   libm.
//!
//! # Example
//!
//! ```
//! use papaya_data::population::{Population, PopulationConfig};
//! let pop = Population::generate(&PopulationConfig::default().with_size(1_000), 42);
//! assert_eq!(pop.len(), 1_000);
//! assert!(pop.device(0).execution_time_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dataset;
pub mod math;
pub mod population;
pub mod stats;
pub mod text;
