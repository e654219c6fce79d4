//! Character-level LSTM language model for federated training.
//!
//! The paper's production workload is an LSTM next-word-prediction model
//! (Kim et al., 2015) trained with local SGD on client devices.  This crate
//! provides the reproduction's stand-in: a small character-level LSTM
//! ([`model::CharLstm`]: one fused, allocation-free forward and backward
//! pass over a flat parameter vector, bit-identical to the textbook
//! equations written out in `tests/fused_vs_reference.rs`, and run on AVX2
//! when the CPU has it, bit-identical to the portable build), plus
//! [`trainer::LmClientTrainer`], a [`papaya_core::client::ClientTrainer`]
//! implementation that trains the model on each client's local synthetic
//! text and evaluates held-out perplexity — the metric reported in Table 1.
//!
//! # Example
//!
//! ```
//! use papaya_data::population::{Population, PopulationConfig};
//! use papaya_data::dataset::FederatedTextDataset;
//! use papaya_lm::{CharLstm, LmClientTrainer, LmConfig};
//! use papaya_core::client::ClientTrainer;
//! use std::sync::Arc;
//!
//! let pop = Population::generate(&PopulationConfig::default().with_size(10), 3);
//! let data = Arc::new(FederatedTextDataset::generate(&pop, 3, 3));
//! let trainer = LmClientTrainer::new(data, LmConfig::tiny());
//! let global = trainer.initial_parameters();
//! let result = trainer.train(0, &global, 1);
//! assert_eq!(result.delta.len(), global.len());
//! ```

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod model;
pub mod trainer;

pub use model::{CharLstm, LmConfig};
pub use trainer::LmClientTrainer;
