//! `CharLstm` against a textbook LSTM, bit for bit, and against the math by
//! finite differences.
//!
//! [`NaiveLstm`] is the reference: the same network written out equation by
//! equation over `Vec<Vec<f32>>` rows, one function per pass (`forward`,
//! `backward`, `sgd_step`), one step at a time, allocating freely.  Every
//! sum in it runs in the order the fused model in `src/model.rs` keeps:
//!
//! * `x·W`: each output sums `x[k]·W[k][j]` over `k` ascending from `0.0`;
//! * `g·Wᵀ`: each output sums `g[j]·W[k][j]` over `j` ascending from `0.0`;
//! * gate pre-activations are `(x·W_x + h·W_h) + b`;
//! * gate gradients associate left to right, `((grad_c·g)·i)·(1 − i)`;
//! * every weight and bias gradient sums its per-step terms over the steps
//!   in descending order, from `0.0`;
//! * the embedding gradient adds each step's input gradient to its token's
//!   row, last step first;
//! * the softmax denominator sums over the classes in order;
//! * the SGD step is `θ − (lr·grad)/steps`;
//! * `exp`, `tanh` and `ln` are `papaya_data::math`'s.
//!
//! The fused model computes the same sums in another layout: the input
//! projections and logits of all steps as one matrix product each, the
//! softmax gradients of all steps before the recurrence, the output layer's
//! share of every `dL/dh_t` as one product, each weight gradient as one sum
//! over the steps after it, and `g·Wᵀ` as `g` times a transposed copy of
//! `W`.  None of that moves a term within a sum.  Its kernels also add the
//! terms whose `x[k]` is `0.0`, as the reference does, but leave out step
//! 0's term of `dW_h`, whose `h_prev` is the zero initial state: a sum that
//! starts at `+0.0` never holds `-0.0`, so a `±0.0` term changes no bit.
//!
//! Losses and every parameter must therefore agree in every bit, in the
//! test profile and with `--release`.

use papaya_data::math;
use papaya_data::text::TextGenerator;
use papaya_lm::{CharLstm, LmConfig};
use papaya_nn::params::ParamVec;
use proptest::prelude::*;

/// A matrix as its rows.
type Rows = Vec<Vec<f32>>;

/// The textbook LSTM language model: embedding → LSTM → linear → softmax
/// cross-entropy.  Gate order is `[input, forget, cell, output]`, as in
/// `CharLstm`; a gradient is a `NaiveLstm` of the same shape.
#[derive(Clone)]
struct NaiveLstm {
    /// `(vocab, embed)`: row `t` embeds token `t`.
    table: Rows,
    /// `(embed, 4·hidden)`.
    w_x: Rows,
    /// `(hidden, 4·hidden)`.
    w_h: Rows,
    /// `(1, 4·hidden)`.
    bias: Rows,
    /// `(hidden, vocab)`.
    w_out: Rows,
    /// `(1, vocab)`.
    b_out: Rows,
}

/// What one forward step keeps for the backward pass.
struct Step {
    token: usize,
    target: usize,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
    h: Vec<f32>,
    /// `softmax(logits)`.
    p: Vec<f32>,
}

/// The two-branch logistic function; `CharLstm` selects the numerator
/// instead, from the same `exp(−|x|)`.
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + math::exp(-x))
    } else {
        let e = math::exp(x);
        e / (1.0 + e)
    }
}

/// `x · W`: output `j` is `Σ_k x[k]·W[k][j]`, over `k` ascending from `0.0`.
fn times(x: &[f32], w: &Rows) -> Vec<f32> {
    (0..w[0].len())
        .map(|j| {
            let mut sum = 0.0f32;
            for (a, row) in x.iter().zip(w) {
                sum += a * row[j];
            }
            sum
        })
        .collect()
}

/// `g · Wᵀ`: output `k` is `Σ_j g[j]·W[k][j]`, over `j` ascending from `0.0`.
fn times_transposed(g: &[f32], w: &Rows) -> Vec<f32> {
    w.iter()
        .map(|row| {
            let mut sum = 0.0f32;
            for (a, b) in g.iter().zip(row) {
                sum += a * b;
            }
            sum
        })
        .collect()
}

/// `G += a ⊗ g`, that is `G[k][j] += a[k]·g[j]`.
fn add_outer(grad: &mut Rows, a: &[f32], g: &[f32]) {
    for (row, a) in grad.iter_mut().zip(a) {
        add(row, &g.iter().map(|b| a * b).collect::<Vec<f32>>());
    }
}

/// `x += y`.
fn add(x: &mut [f32], y: &[f32]) {
    for (x, y) in x.iter_mut().zip(y) {
        *x += y;
    }
}

impl NaiveLstm {
    /// The model holding `params`, cut into tensors of `shapes`
    /// (`CharLstm::parameter_shapes`).
    fn from_params(shapes: &[(usize, usize)], params: &ParamVec) -> Self {
        let mut flat = params.as_slice();
        let mut tensors = shapes.iter().map(|&(rows, cols)| {
            let (tensor, rest) = flat.split_at(rows * cols);
            flat = rest;
            tensor.chunks(cols).map(<[f32]>::to_vec).collect::<Rows>()
        });
        let mut next = || tensors.next().expect("six parameter tensors");
        let model = NaiveLstm {
            table: next(),
            w_x: next(),
            w_h: next(),
            bias: next(),
            w_out: next(),
            b_out: next(),
        };
        assert!(tensors.next().is_none() && flat.is_empty());
        model
    }

    fn tensors(&self) -> [&Rows; 6] {
        [
            &self.table,
            &self.w_x,
            &self.w_h,
            &self.bias,
            &self.w_out,
            &self.b_out,
        ]
    }

    fn tensors_mut(&mut self) -> [&mut Rows; 6] {
        [
            &mut self.table,
            &mut self.w_x,
            &mut self.w_h,
            &mut self.bias,
            &mut self.w_out,
            &mut self.b_out,
        ]
    }

    fn param_vector(&self) -> ParamVec {
        let values = self.tensors().into_iter().flatten().flatten();
        ParamVec::from_vec(values.copied().collect())
    }

    fn zeros_like(&self) -> Self {
        let mut zeros = self.clone();
        for tensor in zeros.tensors_mut() {
            for row in tensor.iter_mut() {
                row.fill(0.0);
            }
        }
        zeros
    }

    /// Runs the network over `tokens`, predicting each next token: the
    /// summed cross-entropy, and what every step keeps for `backward`.
    fn forward(&self, tokens: &[u8]) -> (f32, Vec<Step>) {
        let hidden = self.w_h.len();
        let (mut h, mut c) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
        let mut total = 0.0f32;
        let mut steps = Vec::new();
        for pair in tokens.windows(2) {
            let (token, target) = (usize::from(pair[0]), usize::from(pair[1]));
            // z = (x·W_x + h·W_h) + b, cut into the four gates.
            let from_x = times(&self.table[token], &self.w_x);
            let from_h = times(&h, &self.w_h);
            let z: Vec<f32> = (0..4 * hidden)
                .map(|j| (from_x[j] + from_h[j]) + self.bias[0][j])
                .collect();
            let gate = |n: usize| &z[n * hidden..(n + 1) * hidden];
            let i: Vec<f32> = gate(0).iter().map(|&v| sigmoid(v)).collect();
            let f: Vec<f32> = gate(1).iter().map(|&v| sigmoid(v)).collect();
            let g: Vec<f32> = gate(2).iter().map(|&v| math::tanh(v)).collect();
            let o: Vec<f32> = gate(3).iter().map(|&v| sigmoid(v)).collect();
            // c_t = f ⊙ c_{t-1} + i ⊙ g,  h_t = o ⊙ tanh(c_t).
            let c_t: Vec<f32> = (0..hidden).map(|j| f[j] * c[j] + i[j] * g[j]).collect();
            let tanh_c: Vec<f32> = c_t.iter().map(|&v| math::tanh(v)).collect();
            let h_t: Vec<f32> = (0..hidden).map(|j| o[j] * tanh_c[j]).collect();
            // Cross-entropy of softmax(h_t·W_out + b_out) at the target:
            // log Σ exp(logit − max) + max − logit[target].
            let logits: Vec<f32> = times(&h_t, &self.w_out)
                .iter()
                .zip(&self.b_out[0])
                .map(|(v, b)| v + b)
                .collect();
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let exp: Vec<f32> = logits.iter().map(|v| math::exp(v - max)).collect();
            let mut sum = 0.0f32;
            for e in &exp {
                sum += e;
            }
            total += (math::ln(sum) + max) - logits[target];
            steps.push(Step {
                token,
                target,
                h_prev: h,
                c_prev: c,
                i,
                f,
                g,
                o,
                tanh_c,
                h: h_t.clone(),
                p: exp.iter().map(|e| e / sum).collect(),
            });
            (h, c) = (h_t, c_t);
        }
        (total, steps)
    }

    /// Backpropagation through time: the gradient of the summed loss of
    /// `steps`, one tensor per parameter.
    fn backward(&self, steps: &[Step]) -> NaiveLstm {
        let hidden = self.w_h.len();
        let mut grad = self.zeros_like();
        // dL/dh_t and dL/dc_t·f_{t+1} arriving from step t + 1.
        let (mut grad_h_next, mut grad_c_next) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
        for s in steps.iter().rev() {
            // Output layer: dL/dlogits = softmax − onehot(target).
            let mut grad_logits = s.p.clone();
            grad_logits[s.target] -= 1.0;
            add_outer(&mut grad.w_out, &s.h, &grad_logits);
            add(&mut grad.b_out[0], &grad_logits);
            let mut grad_h = times_transposed(&grad_logits, &self.w_out);
            add(&mut grad_h, &grad_h_next);

            // LSTM cell: dL/dz per gate, through each activation's derivative.
            let mut grad_z = vec![0.0f32; 4 * hidden];
            for j in 0..hidden {
                let (i, f, g, o, tanh_c) = (s.i[j], s.f[j], s.g[j], s.o[j], s.tanh_c[j]);
                let grad_c = grad_c_next[j] + grad_h[j] * o * (1.0 - tanh_c * tanh_c);
                grad_z[j] = grad_c * g * i * (1.0 - i);
                grad_z[hidden + j] = grad_c * s.c_prev[j] * f * (1.0 - f);
                grad_z[2 * hidden + j] = grad_c * i * (1.0 - g * g);
                grad_z[3 * hidden + j] = grad_h[j] * tanh_c * o * (1.0 - o);
                grad_c_next[j] = grad_c * f;
            }
            add_outer(&mut grad.w_x, &self.table[s.token], &grad_z);
            add_outer(&mut grad.w_h, &s.h_prev, &grad_z);
            add(&mut grad.bias[0], &grad_z);
            grad_h_next = times_transposed(&grad_z, &self.w_h);

            // Embedding: the row of this step's token.
            let grad_x = times_transposed(&grad_z, &self.w_x);
            add(&mut grad.table[s.token], &grad_x);
        }
        grad
    }

    /// `θ ← θ − (lr·grad)/steps` for every parameter.
    fn sgd_step(&mut self, grad: &NaiveLstm, learning_rate: f32, steps: usize) {
        for (tensor, grad) in self.tensors_mut().into_iter().zip(grad.tensors()) {
            for (row, grad_row) in tensor.iter_mut().zip(grad) {
                for (value, grad) in row.iter_mut().zip(grad_row) {
                    *value -= learning_rate * grad / steps as f32;
                }
            }
        }
    }

    fn sequence_loss(&self, tokens: &[u8]) -> Option<f32> {
        let (total, steps) = self.forward(tokens);
        (!steps.is_empty()).then(|| total / steps.len() as f32)
    }

    fn train_sequence(&mut self, tokens: &[u8], learning_rate: f32) -> Option<f32> {
        let (total, steps) = self.forward(tokens);
        if steps.is_empty() {
            return None;
        }
        let grad = self.backward(&steps);
        self.sgd_step(&grad, learning_rate, steps.len());
        Some(total / steps.len() as f32)
    }
}

fn bits(params: &ParamVec) -> Vec<u32> {
    params.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Feeds `sequences` to both models in order and compares the evaluation
/// loss before, the training loss, and every parameter after each one.
fn assert_bit_identical(config: LmConfig, seed: u64, learning_rate: f32, sequences: &[Vec<u8>]) {
    let mut fused = CharLstm::new(config, seed);
    let mut naive = NaiveLstm::from_params(&fused.parameter_shapes(), &fused.param_vector());
    assert_eq!(bits(&fused.param_vector()), bits(&naive.param_vector()));
    for (n, tokens) in sequences.iter().enumerate() {
        assert_eq!(
            fused.sequence_loss(tokens).map(f32::to_bits),
            naive.sequence_loss(tokens).map(f32::to_bits),
            "sequence_loss, sequence {n} {tokens:?}"
        );
        assert_eq!(
            fused
                .train_sequence(tokens, learning_rate)
                .map(f32::to_bits),
            naive
                .train_sequence(tokens, learning_rate)
                .map(f32::to_bits),
            "train_sequence loss, sequence {n} {tokens:?}"
        );
        assert_eq!(
            bits(&fused.param_vector()),
            bits(&naive.param_vector()),
            "parameters after sequence {n} {tokens:?}"
        );
    }
}

/// Hidden size, embedding width and vocabulary all leave a remainder when
/// divided by four: every product ends in a narrow column tile.
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
    fn tiny_config_matches_the_reference_bit_for_bit(
        seed in any::<u64>(),
        learning_rate in 0.01f32..2.0,
        sequences in proptest::collection::vec(
            proptest::collection::vec(0u8..28, 2..=60),
            1..5,
        ),
    ) {
        assert_bit_identical(LmConfig::tiny(), seed, learning_rate, &sequences);
    }

    /// Drawn shapes: every 8-column and 4-row tile of the fused kernels
    /// gets a tail, and single-step sequences come up.
    #[test]
    fn odd_sized_config_matches_the_reference_bit_for_bit(
        vocab_size in 2usize..=40,
        embedding_dim in 1usize..=17,
        hidden_size in 1usize..=33,
        seed in any::<u64>(),
        learning_rate in 0.01f32..2.0,
        drawn in proptest::collection::vec(
            proptest::collection::vec(0u8..40, 2..=60),
            1..5,
        ),
    ) {
        let config = LmConfig { vocab_size, embedding_dim, hidden_size };
        let sequences: Vec<Vec<u8>> = drawn
            .iter()
            .map(|tokens| tokens.iter().map(|&t| t % vocab_size as u8).collect())
            .collect();
        assert_bit_identical(config, seed, learning_rate, &sequences);
    }
}

/// One sentence of `words` words in a buffer of its own.
fn sentence(generator: &mut TextGenerator, words: usize) -> Vec<u8> {
    let mut tokens = Vec::new();
    generator.sentence(words, &mut tokens);
    tokens
}

#[test]
fn repeated_tokens_and_one_word_sentences_match() {
    let mut generator = TextGenerator::for_client(3, 0.4, 11);
    let sequences = vec![
        vec![5; 40],
        sentence(&mut generator, 1),
        vec![27, 27],
        sentence(&mut generator, 6),
        vec![0],
        vec![],
    ];
    assert_bit_identical(LmConfig::tiny(), 9, 0.5, &sequences);
    let odd: Vec<Vec<u8>> = vec![vec![10; 17], vec![3, 3, 3], vec![1, 2, 3, 4, 5, 6, 7]];
    assert_bit_identical(odd_config(), 9, 0.5, &odd);
}

#[test]
fn training_from_trained_parameters_matches() {
    // A long run: after a few hundred updates activations saturate and
    // exact zeros (the skipped rows of `x·W` and the rank-1 update) appear.
    let mut generator = TextGenerator::for_client(1, 0.9, 4);
    let sequences: Vec<Vec<u8>> = (0..120)
        .map(|n| sentence(&mut generator, 1 + n % 5))
        .collect();
    assert_bit_identical(LmConfig::tiny(), 21, 1.0, &sequences);
}

/// One SGD step at learning rate 1 moves a parameter by
/// `-(d total_loss / d θ) / steps`, which is minus the gradient of the mean
/// loss `sequence_loss` reports; central differences over `from_params`
/// models give the same number without any backward pass.  Probed: one
/// entry of the table, of the output weight and of the output bias, and one
/// per gate (column block) of `w_x`, `w_h` and the gate bias — each time the
/// entry the step moved furthest, so the difference quotient stands clear of
/// `f32` rounding.  The step and every shifted loss are also taken from the
/// reference, which must agree in every bit.
#[test]
fn train_sequence_gradient_matches_finite_differences() {
    for config in [LmConfig::tiny(), odd_config()] {
        let tokens: Vec<u8> = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]
            .iter()
            .map(|t| t % config.vocab_size as u8)
            .collect();
        // Start from a model fitted to another sequence: its gates have left
        // the flat initial regime, so every gate's gradient is well above
        // the rounding of an `f32` loss.
        let mut start = CharLstm::new(config, 17);
        let other: Vec<u8> = tokens
            .iter()
            .rev()
            .map(|t| (t + 1) % config.vocab_size as u8)
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
        for (name, &(rows, cols)) in names.iter().zip(&shapes) {
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
                    let loss = CharLstm::from_params(config, &params)
                        .sequence_loss(&tokens)
                        .expect("long enough");
                    let reference = NaiveLstm::from_params(&shapes, &params)
                        .sequence_loss(&tokens)
                        .expect("long enough");
                    assert_eq!(
                        loss.to_bits(),
                        reference.to_bits(),
                        "{name} [{index}] {shift}"
                    );
                    loss as f64
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
        let mut naive = NaiveLstm::from_params(&shapes, &start);
        naive.train_sequence(&tokens, 1.0).expect("long enough");
        assert_eq!(bits(&trained), bits(&naive.param_vector()), "{config:?}");
    }
}
