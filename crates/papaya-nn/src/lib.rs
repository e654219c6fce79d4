//! A minimal, dependency-free neural-network substrate for federated
//! on-device training.
//!
//! PAPAYA's production evaluation trains an LSTM-based next-word-prediction
//! language model with PyTorch Mobile on client devices.  This crate provides
//! the pieces of that stack the reproduction needs, implemented from scratch:
//!
//! * [`tensor::Matrix`] — a row-major 2-D `f32` matrix with the handful of
//!   BLAS-like operations the layers need;
//! * layers with explicit forward/backward passes and internally stored
//!   activations ([`linear::Linear`], [`embedding::Embedding`],
//!   [`lstm::LstmCell`]);
//! * [`loss::softmax_cross_entropy`] and its gradient;
//! * client-side optimizers ([`optim::Sgd`], [`optim::Adam`]);
//! * [`params::ParamVec`] — a flat view of model parameters used for model
//!   upload, masking (secure aggregation operates on flat vectors), and
//!   server-side optimizer steps.
//!
//! All gradients are validated against finite differences in the test suite.
//!
//! Every workload runs [`params::ParamVec`].  The `Matrix` layers are the
//! reference: `papaya-lm`'s `CharLstm` computes the same network over flat
//! vectors without a matrix per intermediate value, and its
//! `tests/fused_vs_layers.rs` composes these layers into the model it is
//! compared with bit for bit.
//!
//! # Example
//!
//! ```
//! use papaya_nn::linear::Linear;
//! use papaya_nn::tensor::Matrix;
//! use papaya_nn::optim::{Optimizer, Sgd};
//!
//! let mut layer = Linear::new(4, 2, 42);
//! let x = Matrix::from_rows(&[vec![1.0, 0.5, -0.3, 2.0]]);
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), (1, 2));
//! let grad_out = Matrix::ones(1, 2);
//! let _grad_in = layer.backward(&grad_out);
//! let mut opt = Sgd::new(0.1);
//! opt.step(&mut layer.parameters_mut());
//! ```

pub mod embedding;
pub mod init;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod params;
pub mod tensor;

pub use params::{ParamVec, Parameter};
pub use tensor::Matrix;
