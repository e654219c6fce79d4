//! `CharLstm` against the layer-composed model it replaced, bit for bit,
//! and against the math by finite differences.
//!
//! [`LayerLstm`] is the reference: the same network built from `papaya-nn`'s
//! `Matrix` layers (`Embedding` → `LstmCell` → `Linear` →
//! `softmax_cross_entropy`), one small matrix per intermediate value.  The
//! fused model in `src/model.rs` computes the same sums in the same order
//! over flat vectors, so losses and every parameter must agree in every
//! bit — in the test profile and with `--release`.

use papaya_data::text::TextGenerator;
use papaya_lm::{CharLstm, LmConfig};
use papaya_nn::embedding::Embedding;
use papaya_nn::linear::Linear;
use papaya_nn::loss::softmax_cross_entropy;
use papaya_nn::lstm::{LstmCell, LstmState};
use papaya_nn::params::ParamVec;
use papaya_nn::tensor::Matrix;
use proptest::prelude::*;

/// The layer-composed reference model.
struct LayerLstm {
    hidden: usize,
    embedding: Embedding,
    lstm: LstmCell,
    output: Linear,
}

impl LayerLstm {
    /// A reference model holding `params` (in `CharLstm::param_vector` order).
    fn from_params(config: LmConfig, params: &ParamVec) -> Self {
        let mut model = LayerLstm {
            hidden: config.hidden_size,
            embedding: Embedding::new(config.vocab_size, config.embedding_dim, 0),
            lstm: LstmCell::new(config.embedding_dim, config.hidden_size, 0),
            output: Linear::new(config.hidden_size, config.vocab_size, 0),
        };
        let shapes: Vec<(usize, usize)> = model
            .parameter_matrices()
            .iter()
            .map(|m| m.shape())
            .collect();
        let matrices = params.to_matrices(&shapes);
        model.embedding.set_parameter_matrices(&matrices[0..1]);
        model.lstm.set_parameter_matrices(&matrices[1..4]);
        model.output.set_parameter_matrices(&matrices[4..6]);
        model
    }

    fn parameter_matrices(&self) -> Vec<&Matrix> {
        let mut out = self.embedding.parameter_matrices();
        out.extend(self.lstm.parameter_matrices());
        out.extend(self.output.parameter_matrices());
        out
    }

    fn param_vector(&self) -> ParamVec {
        ParamVec::from_matrices(self.parameter_matrices())
    }

    fn sequence_loss(&self, tokens: &[usize]) -> Option<f32> {
        if tokens.len() < 2 {
            return None;
        }
        let mut state = LstmState::zeros(1, self.hidden);
        let mut total = 0.0f32;
        let steps = tokens.len() - 1;
        for t in 0..steps {
            let embedded = self.embedding.forward_inference(&tokens[t..t + 1]);
            state = self.lstm.step_inference(&embedded, &state);
            let logits = self.output.forward_inference(&state.h);
            let (loss, _) = softmax_cross_entropy(&logits, &tokens[t + 1..t + 2]);
            total += loss;
        }
        Some(total / steps as f32)
    }

    fn train_sequence(&mut self, tokens: &[usize], learning_rate: f32) -> Option<f32> {
        if tokens.len() < 2 {
            return None;
        }
        let steps = tokens.len() - 1;

        self.embedding.zero_grad();
        self.lstm.zero_grad();
        self.output.zero_grad();
        self.lstm.clear_cache();

        // Forward pass, retaining per-step caches for BPTT.
        let mut state = LstmState::zeros(1, self.hidden);
        let mut total_loss = 0.0f32;
        let mut logit_grads: Vec<Matrix> = Vec::with_capacity(steps);
        let mut embedded_inputs: Vec<Vec<usize>> = Vec::with_capacity(steps);
        let mut hidden_states: Vec<Matrix> = Vec::with_capacity(steps);
        for t in 0..steps {
            let ids = vec![tokens[t]];
            let embedded = self.embedding.forward_inference(&ids);
            state = self.lstm.step(&embedded, &state);
            let logits = self.output.forward_inference(&state.h);
            let (loss, grad_logits) = softmax_cross_entropy(&logits, &tokens[t + 1..t + 2]);
            total_loss += loss;
            logit_grads.push(grad_logits);
            embedded_inputs.push(ids);
            hidden_states.push(state.h.clone());
        }

        // Backward pass (reverse time); the two `forward` calls only refill
        // the layers' input caches.
        let mut grad_h_next = Matrix::zeros(1, self.hidden);
        let mut grad_c_next = Matrix::zeros(1, self.hidden);
        for t in (0..steps).rev() {
            let _ = self.output.forward(&hidden_states[t]);
            let grad_h_from_output = self.output.backward(&logit_grads[t]);
            let grad_h = grad_h_from_output.add(&grad_h_next);
            let (grad_embedded, grad_h_prev, grad_c_prev) =
                self.lstm.backward_step(&grad_h, &grad_c_next);
            let _ = self.embedding.forward(&embedded_inputs[t]);
            self.embedding.backward(&grad_embedded);
            grad_h_next = grad_h_prev;
            grad_c_next = grad_c_prev;
        }

        // SGD step over all parameters.
        let mut params = self.embedding.parameters_mut();
        params.extend(self.lstm.parameters_mut());
        params.extend(self.output.parameters_mut());
        for p in params.iter_mut() {
            let grads = p.grad.data().to_vec();
            for (value, grad) in p.value.data_mut().iter_mut().zip(grads.iter()) {
                *value -= learning_rate * grad / steps as f32;
            }
        }
        Some(total_loss / steps as f32)
    }
}

fn bits(params: &ParamVec) -> Vec<u32> {
    params.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Feeds `sequences` to both models in order and compares the evaluation
/// loss before, the training loss, and every parameter after each one.
fn assert_bit_identical(config: LmConfig, seed: u64, learning_rate: f32, sequences: &[Vec<usize>]) {
    let mut fused = CharLstm::new(config, seed);
    let mut layers = LayerLstm::from_params(config, &fused.param_vector());
    assert_eq!(bits(&fused.param_vector()), bits(&layers.param_vector()));
    for (n, tokens) in sequences.iter().enumerate() {
        assert_eq!(
            fused.sequence_loss(tokens).map(f32::to_bits),
            layers.sequence_loss(tokens).map(f32::to_bits),
            "sequence_loss, sequence {n} {tokens:?}"
        );
        assert_eq!(
            fused
                .train_sequence(tokens, learning_rate)
                .map(f32::to_bits),
            layers
                .train_sequence(tokens, learning_rate)
                .map(f32::to_bits),
            "train_sequence loss, sequence {n} {tokens:?}"
        );
        assert_eq!(
            bits(&fused.param_vector()),
            bits(&layers.param_vector()),
            "parameters after sequence {n} {tokens:?}"
        );
    }
}

/// Hidden size, embedding width and vocabulary all leave a remainder when
/// divided by four: every `g·Wᵀ` product ends in the one-chain tail.
fn odd_config() -> LmConfig {
    LmConfig {
        vocab_size: 11,
        embedding_dim: 5,
        hidden_size: 7,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiny_config_matches_the_layers_bit_for_bit(
        seed in any::<u64>(),
        learning_rate in 0.01f32..2.0,
        sequences in proptest::collection::vec(
            proptest::collection::vec(0usize..28, 2..=60),
            1..5,
        ),
    ) {
        assert_bit_identical(LmConfig::tiny(), seed, learning_rate, &sequences);
    }

    #[test]
    fn odd_sized_config_matches_the_layers_bit_for_bit(
        seed in any::<u64>(),
        learning_rate in 0.01f32..2.0,
        sequences in proptest::collection::vec(
            proptest::collection::vec(0usize..11, 2..=60),
            1..5,
        ),
    ) {
        assert_bit_identical(odd_config(), seed, learning_rate, &sequences);
    }
}

#[test]
fn repeated_tokens_and_one_word_sentences_match() {
    let mut generator = TextGenerator::for_client(3, 0.4, 11);
    let sequences = vec![
        vec![5; 40],
        generator.sentence(1),
        vec![27, 27],
        generator.sentence(6),
        vec![0],
        vec![],
    ];
    assert_bit_identical(LmConfig::tiny(), 9, 0.5, &sequences);
    let odd: Vec<Vec<usize>> = vec![vec![10; 17], vec![3, 3, 3], vec![1, 2, 3, 4, 5, 6, 7]];
    assert_bit_identical(odd_config(), 9, 0.5, &odd);
}

#[test]
fn training_from_trained_parameters_matches() {
    // A long run: after a few hundred updates activations saturate and
    // exact zeros (the skipped rows of `x·W` and the rank-1 update) appear.
    let mut generator = TextGenerator::for_client(1, 0.9, 4);
    let sequences: Vec<Vec<usize>> = (0..120).map(|n| generator.sentence(1 + n % 5)).collect();
    assert_bit_identical(LmConfig::tiny(), 21, 1.0, &sequences);
}

/// One SGD step at learning rate 1 moves a parameter by
/// `-(d total_loss / d θ) / steps`, which is minus the gradient of the mean
/// loss `sequence_loss` reports; central differences over `from_params`
/// models give the same number without any backward pass.  Probed: one
/// entry of the table, of the output weight and of the output bias, and one
/// per gate (column block) of `w_x`, `w_h` and the gate bias — each time the
/// entry the step moved furthest, so the difference quotient stands clear of
/// `f32` rounding.
#[test]
fn train_sequence_gradient_matches_finite_differences() {
    for config in [LmConfig::tiny(), odd_config()] {
        let tokens: Vec<usize> = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]
            .iter()
            .map(|t| t % config.vocab_size)
            .collect();
        // Start from a model fitted to another sequence: its gates have left
        // the flat initial regime, so every gate's gradient is well above
        // the rounding of an `f32` loss.
        let mut start = CharLstm::new(config, 17);
        let other: Vec<usize> = tokens
            .iter()
            .rev()
            .map(|t| (t + 1) % config.vocab_size)
            .collect();
        for _ in 0..60 {
            start.train_sequence(&other, 1.0).expect("long enough");
        }
        let mut trained = start.clone();
        trained.train_sequence(&tokens, 1.0).expect("long enough");
        let shapes = start.parameter_shapes();
        let (start, trained) = (start.param_vector(), trained.param_vector());
        let moved = |index: usize| (start.as_slice()[index] - trained.as_slice()[index]) as f64;

        let names = ["table", "w_x", "w_h", "bias", "w_out", "b_out"];
        let mut offset = 0;
        for (name, (rows, cols)) in names.iter().zip(shapes) {
            let tensor = offset..offset + rows * cols;
            offset = tensor.end;
            let gates = if cols == 4 * config.hidden_size { 4 } else { 1 };
            for gate in 0..gates {
                let index = tensor
                    .clone()
                    .filter(|i| (i - tensor.start) % cols / (cols / gates) == gate)
                    .max_by(|&a, &b| moved(a).abs().total_cmp(&moved(b).abs()))
                    .expect("tensor is not empty");
                let loss_at = |shift: f32| {
                    let mut params = start.clone();
                    params.as_mut_slice()[index] += shift;
                    CharLstm::from_params(config, &params)
                        .sequence_loss(&tokens)
                        .expect("long enough") as f64
                };
                let eps = 1e-2f32;
                let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps as f64);
                let analytic = moved(index);
                assert!(
                    analytic.abs() > 1e-3,
                    "{name} gate {gate}: no gradient ({analytic})"
                );
                assert!(
                    (numeric - analytic).abs() < 5e-5 + 0.01 * analytic.abs(),
                    "{name} gate {gate} [{index}] of {config:?}: finite difference {numeric} \
                     vs backprop {analytic}"
                );
            }
        }
        assert_eq!(offset, start.len());
    }
}
