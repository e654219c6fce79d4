//! Core federated-learning algorithms for PAPAYA.
//!
//! This crate is the paper's primary algorithmic contribution in library
//! form, independent of the system simulation:
//!
//! * [`config`] — task configuration: training mode (synchronous with
//!   over-selection, or asynchronous FedBuff with an optional round
//!   deadline), concurrency, aggregation goal, staleness limits, timeouts;
//! * [`staleness`] — the staleness down-weighting schemes (the paper uses
//!   `1/sqrt(1 + s)`);
//! * [`aggregator`] — the [`Aggregator`](aggregator::Aggregator) trait
//!   every aggregation strategy implements, the [`aggregator::for_task`]
//!   factory mapping a task's mode to a strategy, and
//!   [`aggregator::AggregationStack`], the one place a task's strategy and
//!   decorators are composed;
//! * [`fedbuff`] — the one buffering strategy, two modes: buffered
//!   asynchronous aggregation (Nguyen et al., 2021 as deployed by PAPAYA,
//!   Section 3.1 / Appendix E.2), optionally force-released on a round
//!   deadline to bound the straggler tail, and synchronous rounds with
//!   over-selection at constant staleness weight;
//! * [`secure`] — the [`secure::SecureAggregator`] decorator running any
//!   strategy through the TEE-based asynchronous secure-aggregation
//!   protocol (masking on accumulate, per-buffer TSA key release on take);
//! * [`dp`] — the [`dp::DpAggregator`] decorator adding user-level
//!   differential privacy to any strategy (per-update L2 clipping, seeded
//!   Gaussian release noise, and an RDP [`dp::PrivacyAccountant`]);
//! * [`adversary`] — typed Byzantine client behaviors (sign-flip, scaled
//!   boosting, colluding cohorts, staleness liars, SecAgg protocol
//!   deviations) with deterministic per-client membership;
//! * [`robust`] — the [`robust::RobustAggregator`] decorator defending any
//!   strategy against those behaviors (L2 norm filtering, coordinate-wise
//!   trimmed mean and median), stacking outermost as
//!   `robust(dp(secure(strategy)))`;
//! * [`server_opt`] — server optimizers applied to aggregated deltas
//!   (FedAvg/FedSGD/FedAdam, Reddi et al., 2020);
//! * [`trace`] — bounded metric traces ([`trace::DecimatedTrace`] under a
//!   [`trace::TraceBudget`], deterministic stride decimation) backing the
//!   simulator's metrics layer at million-client scale;
//! * [`model`] — the versioned server model;
//! * [`client`] — the client-trainer abstraction (local SGD producing a
//!   weighted delta) shared by the real LSTM trainer (`papaya-lm`) and the
//!   procedural surrogate in [`surrogate`].
//!
//! # Example: one FedBuff buffer behind the `Aggregator` trait
//!
//! ```
//! use papaya_core::aggregator::Aggregator;
//! use papaya_core::fedbuff::FedBuffAggregator;
//! use papaya_core::client::ClientUpdate;
//! use papaya_core::staleness::StalenessWeighting;
//! use papaya_nn::params::ParamVec;
//!
//! let mut agg = FedBuffAggregator::new(2, StalenessWeighting::PolynomialHalf);
//! let update = |id, delta: Vec<f32>| ClientUpdate {
//!     client_id: id,
//!     delta: ParamVec::from_vec(delta),
//!     num_examples: 10,
//!     start_version: 0,
//!     train_loss: 0.0,
//! };
//! assert!(agg.accumulate(update(0, vec![1.0, 0.0]), 0, 0.0).accepted());
//! assert!(agg.accumulate(update(1, vec![0.0, 1.0]), 0, 1.0).accepted());
//! assert!(agg.is_ready(1.0));
//! let aggregated = agg.take(1.0).unwrap();
//! assert_eq!(aggregated.as_slice(), &[0.5, 0.5]);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod adversary;
pub mod aggregator;
pub mod client;
pub mod config;
pub mod dp;
pub mod fedbuff;
pub mod model;
pub mod robust;
pub mod secure;
pub mod server_opt;
pub mod staleness;
pub mod surrogate;
pub mod trace;

pub use adversary::{AdversarySpec, DeviationKind, Malice};
pub use config::{SecAggMode, TaskConfig, TrainingMode};
pub use dp::{DpAggregator, DpConfig, DpTelemetry, PrivacyAccountant};
pub use fedbuff::FedBuffAggregator;
pub use robust::{RobustAggregator, RobustConfig, RobustDefense, RobustTelemetry};
pub use secure::{SecureAggregator, SecureTelemetry};
