//! The character-level LSTM language model.
//!
//! One fused model over flat vectors: the parameters are a single
//! `Vec<f32>` in [`CharLstm::param_vector`] order (embedding table, LSTM
//! `w_x`, `w_h` and gate bias, output weight and bias), the gradient is a
//! second vector of the same layout, and every per-step activation that
//! backpropagation through time needs lives in one workspace that is
//! resized once per sequence.  Nothing is allocated per time step.
//!
//! Every sum below runs in one fixed order and every product keeps its
//! association, because the deltas this model produces feed
//! `Report::fingerprint`.  `tests/fused_vs_reference.rs` writes the same
//! network out as the textbook equations over `Vec<Vec<f32>>` rows, with
//! the sums in the same order, and compares the two bit for bit.  Gate
//! order is `[input, forget, cell, output]`.  `exp`, `tanh` and `ln` come
//! from `papaya_data::math`, never from libm, so the bits are the same on
//! every host.

use papaya_data::math;
use papaya_nn::init::{uniform, xavier_uniform};
use papaya_nn::params::ParamVec;

/// Architecture hyperparameters of the language model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LmConfig {
    /// Vocabulary size (number of distinct character tokens).
    pub vocab_size: usize,
    /// Embedding dimensionality.
    pub embedding_dim: usize,
    /// LSTM hidden width.
    pub hidden_size: usize,
}

impl LmConfig {
    /// The configuration used by the experiments: 28-character vocabulary,
    /// 12-dimensional embeddings, 24 hidden units (~5k parameters) — small
    /// enough to train per-client inside the simulator.
    pub fn tiny() -> Self {
        LmConfig {
            vocab_size: papaya_data::text::vocab_size(),
            embedding_dim: 12,
            hidden_size: 24,
        }
    }

    /// Total number of scalar parameters of a model of this shape.
    pub fn parameter_count(&self) -> usize {
        self.shapes().iter().map(|(rows, cols)| rows * cols).sum()
    }

    /// `(rows, cols)` of the six parameter tensors in flattening order:
    /// table, `w_x`, `w_h`, gate bias, output weight, output bias.
    fn shapes(&self) -> [(usize, usize); 6] {
        let (v, e, h) = (self.vocab_size, self.embedding_dim, self.hidden_size);
        [(v, e), (e, 4 * h), (h, 4 * h), (1, 4 * h), (h, v), (1, v)]
    }

    /// Splits a flat parameter (or gradient) vector into the six tensors.
    fn split<'a>(&self, mut flat: &'a [f32]) -> [&'a [f32]; 6] {
        self.shapes().map(|(rows, cols)| {
            let (tensor, rest) = flat.split_at(rows * cols);
            flat = rest;
            tensor
        })
    }

    /// Mutable counterpart of [`LmConfig::split`].
    fn split_mut<'a>(&self, mut flat: &'a mut [f32]) -> [&'a mut [f32]; 6] {
        self.shapes().map(|(rows, cols)| {
            let (tensor, rest) = std::mem::take(&mut flat).split_at_mut(rows * cols);
            flat = rest;
            tensor
        })
    }
}

/// Numerically stable logistic function: `1/(1 + e^−x)` for `x ≥ 0` and
/// `e^x/(1 + e^x)` below, so `exp` only ever sees a non-positive argument.
/// Both forms share `e^−|x|` and differ only in the numerator, which a
/// select picks: the gate loop stays branch-free.
fn sigmoid(x: f32) -> f32 {
    let e = math::exp(-x.abs());
    let numerator = if x >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

/// Independent accumulation chains [`times_transposed`] advances together.
const CHAINS: usize = 4;

/// `out = x · W` for a row vector `x` and a row-major `(x.len(), out.len())`
/// matrix: each output accumulates `x[k]·W[k][j]` over `k` ascending from
/// `0.0`.  Rows with `x[k] == 0.0` are skipped; they would add `±0.0` to a
/// sum that, starting at `+0.0`, never holds `-0.0`, so no bit changes.
fn row_times(x: &[f32], w: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (&a, w_row) in x.iter().zip(w.chunks_exact(out.len())) {
        if a == 0.0 {
            continue;
        }
        for (o, b) in out.iter_mut().zip(w_row) {
            *o += a * b;
        }
    }
}

/// `out = g · Wᵀ` for a row-major `(out.len(), g.len())` matrix: each output
/// is one dot product `Σ g[k]·W[j][k]`, summed over `k` ascending from
/// `0.0` with no skipping.  A single dot product is a chain of dependent
/// additions, so [`CHAINS`] outputs advance together, each still summing
/// over `k` ascending.
fn times_transposed(g: &[f32], w: &[f32], out: &mut [f32]) {
    let n = g.len();
    let mut outputs = out.chunks_exact_mut(CHAINS);
    let mut blocks = w.chunks_exact(CHAINS * n);
    for (o, block) in outputs.by_ref().zip(blocks.by_ref()) {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|c| &block[c * n..(c + 1) * n]);
        let mut acc = [0.0f32; CHAINS];
        for (k, a) in g.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(rows) {
                *acc += a * row[k];
            }
        }
        o.copy_from_slice(&acc);
    }
    let tail_rows = blocks.remainder().chunks_exact(n);
    for (o, w_row) in outputs.into_remainder().iter_mut().zip(tail_rows) {
        let mut acc = 0.0f32;
        for (a, b) in g.iter().zip(w_row) {
            acc += a * b;
        }
        *o = acc;
    }
}

/// `grad[i][j] += a[i] · g[j]` on a row-major `(a.len(), g.len())` gradient,
/// one step's term of the sum over time.  Rows with `a[i] == 0.0` are
/// skipped, as in [`row_times`]: the gradient starts at `+0.0` and never
/// holds `-0.0`.
fn add_outer(a: &[f32], g: &[f32], grad: &mut [f32]) {
    for (&a, grad_row) in a.iter().zip(grad.chunks_exact_mut(g.len())) {
        if a == 0.0 {
            continue;
        }
        for (o, b) in grad_row.iter_mut().zip(g) {
            *o += a * b;
        }
    }
}

/// `grad[j] += g[j]`, written `grad[j] += 0.0 + g[j]`: the `0.0 +` turns a
/// `-0.0` term into `+0.0`, which changes no bit of a gradient that never
/// holds `-0.0`.
fn add_row_sum(g: &[f32], grad: &mut [f32]) {
    for (o, b) in grad.iter_mut().zip(g) {
        *o += 0.0 + b;
    }
}

/// Per-step activations of one sequence plus the scratch rows both passes
/// use.  Training keeps one for the model's lifetime, evaluation one per
/// [`CharLstm::sequence_losses`] call; the buffers keep their capacity from
/// one sequence to the next.
#[derive(Clone, Debug, Default)]
struct Workspace {
    /// Hidden states `h_0 ..= h_steps`, one row of `hidden` each; row 0 is
    /// the zero initial state and is never written.
    h: Vec<f32>,
    /// Cell states, laid out like `h`.
    c: Vec<f32>,
    /// Activated gates `[i | f | g | o]`, one row of `4 * hidden` a step.
    gates: Vec<f32>,
    /// `tanh(c_t)`, computed once by the forward step and reused backward.
    tanh_c: Vec<f32>,
    /// `exp(logit - max)` per class, one row of `vocab` a step; divided by
    /// `exp_sum` it is the softmax, which is the logit gradient up to the
    /// `- 1` at the target.
    exp: Vec<f32>,
    /// Sum of each `exp` row.
    exp_sum: Vec<f32>,
    /// `x · w_x` and `h · w_h` of the current step (`4 * hidden` each); the
    /// reference adds the two finished sums, so they cannot share a row.
    from_x: Vec<f32>,
    from_h: Vec<f32>,
    /// Backward scratch: gradients of the logits, the pre-activation gates,
    /// the hidden state (total, and the part arriving from step `t + 1`),
    /// the cell state and the embedded input.
    grad_logits: Vec<f32>,
    grad_gates: Vec<f32>,
    grad_h: Vec<f32>,
    grad_h_next: Vec<f32>,
    grad_c: Vec<f32>,
    grad_x: Vec<f32>,
}

impl Workspace {
    /// Sizes every buffer for a sequence of `steps` steps: the only place
    /// the model's hot path can allocate.
    fn resize(&mut self, config: &LmConfig, steps: usize) {
        let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
        self.h.resize((steps + 1) * h, 0.0);
        self.c.resize((steps + 1) * h, 0.0);
        self.gates.resize(steps * 4 * h, 0.0);
        self.tanh_c.resize(steps * h, 0.0);
        self.exp.resize(steps * v, 0.0);
        self.exp_sum.resize(steps, 0.0);
        self.from_x.resize(4 * h, 0.0);
        self.from_h.resize(4 * h, 0.0);
        self.grad_logits.resize(v, 0.0);
        self.grad_gates.resize(4 * h, 0.0);
        self.grad_h.resize(h, 0.0);
        self.grad_h_next.resize(h, 0.0);
        self.grad_c.resize(h, 0.0);
        self.grad_x.resize(e, 0.0);
    }
}

/// Runs the network over `tokens[..steps]`, predicting `tokens[1..]`, and
/// leaves every activation in `ws`.  Returns the summed per-token
/// cross-entropy.
///
/// # Panics
///
/// Panics if a token id is outside the vocabulary.
fn forward(config: &LmConfig, params: &[f32], tokens: &[usize], ws: &mut Workspace) -> f32 {
    let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
    let [table, w_x, w_h, bias, w_out, b_out] = config.split(params);
    let steps = tokens.len() - 1;
    ws.resize(config, steps);

    let mut total_loss = 0.0f32;
    for t in 0..steps {
        let (token, target) = (tokens[t], tokens[t + 1]);
        assert!(token < v, "token id {token} out of range");
        assert!(target < v, "target {target} out of range");
        let (h_prev, h_out) = ws.h[t * h..(t + 2) * h].split_at_mut(h);
        let (c_prev, c_out) = ws.c[t * h..(t + 2) * h].split_at_mut(h);

        // Pre-activations: (x·w_x + h·w_h) + bias.
        row_times(&table[token * e..(token + 1) * e], w_x, &mut ws.from_x);
        row_times(h_prev, w_h, &mut ws.from_h);
        let gates = &mut ws.gates[t * 4 * h..(t + 1) * 4 * h];
        let sums = ws.from_x.iter().zip(&ws.from_h).zip(bias);
        for (gate, ((from_x, from_h), bias)) in gates.iter_mut().zip(sums) {
            *gate = (from_x + from_h) + bias;
        }

        let (i, rest) = gates.split_at_mut(h);
        let (f, rest) = rest.split_at_mut(h);
        let (g, o) = rest.split_at_mut(h);
        let tanh_c = &mut ws.tanh_c[t * h..(t + 1) * h];
        for j in 0..h {
            i[j] = sigmoid(i[j]);
            f[j] = sigmoid(f[j]);
            g[j] = math::tanh(g[j]);
            o[j] = sigmoid(o[j]);
            c_out[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = math::tanh(c_out[j]);
            h_out[j] = o[j] * tanh_c[j];
        }

        // Logits, then softmax cross-entropy against the next token.
        let exp = &mut ws.exp[t * v..(t + 1) * v];
        row_times(h_out, w_out, exp);
        for (logit, bias) in exp.iter_mut().zip(b_out) {
            *logit += bias;
        }
        let max = exp.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let target_logit = exp[target];
        for logit in exp.iter_mut() {
            *logit = math::exp(*logit - max);
        }
        let sum: f32 = exp.iter().sum();
        ws.exp_sum[t] = sum;
        total_loss += (math::ln(sum) + max) - target_logit;
    }
    total_loss
}

/// A next-character prediction model: embedding → LSTM → linear → softmax.
#[derive(Clone, Debug)]
pub struct CharLstm {
    config: LmConfig,
    params: Vec<f32>,
    grads: Vec<f32>,
    ws: Workspace,
}

impl CharLstm {
    /// Creates a model with freshly initialized weights: a uniform
    /// `[-0.1, 0.1)` table, Xavier-uniform weights, zero biases except the
    /// forget gate's, which starts at 1.0 (the standard trick for stable
    /// early training).
    ///
    /// # Panics
    ///
    /// Panics if a dimension of `config` is zero.
    pub fn new(config: LmConfig, seed: u64) -> Self {
        let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
        let mut params = Vec::with_capacity(config.parameter_count());
        params.extend(uniform(v, e, 0.1, seed));
        params.extend(xavier_uniform(e, 4 * h, seed.wrapping_add(1)));
        params.extend(xavier_uniform(h, 4 * h, seed.wrapping_add(2)));
        params.extend((0..4 * h).map(|j| if (h..2 * h).contains(&j) { 1.0 } else { 0.0 }));
        params.extend(xavier_uniform(h, v, seed.wrapping_add(2)));
        params.resize(params.len() + v, 0.0);
        Self::with_params(config, params)
    }

    /// Creates a model holding `params`, drawing nothing.
    ///
    /// # Panics
    ///
    /// Panics if a dimension of `config` is zero, or if the length does not
    /// match [`LmConfig::parameter_count`].
    pub fn from_params(config: LmConfig, params: &ParamVec) -> Self {
        Self::with_params(config, params.as_slice().to_vec())
    }

    fn with_params(config: LmConfig, params: Vec<f32>) -> Self {
        let LmConfig {
            vocab_size,
            embedding_dim,
            hidden_size,
        } = config;
        for (field, value) in [
            ("vocab_size", vocab_size),
            ("embedding_dim", embedding_dim),
            ("hidden_size", hidden_size),
        ] {
            assert!(value > 0, "LmConfig::{field} must be positive");
        }
        assert_eq!(
            params.len(),
            config.parameter_count(),
            "parameter vector has {} elements but the model has {}",
            params.len(),
            config.parameter_count()
        );
        CharLstm {
            config,
            grads: vec![0.0; params.len()],
            params,
            ws: Workspace::default(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> LmConfig {
        self.config
    }

    /// Shapes of all parameter matrices, in the flattening order used by
    /// [`CharLstm::param_vector`].
    pub fn parameter_shapes(&self) -> Vec<(usize, usize)> {
        self.config.shapes().to_vec()
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.params.len()
    }

    /// Flattens all parameters into a single vector.
    pub fn param_vector(&self) -> ParamVec {
        ParamVec::from_vec(self.params.clone())
    }

    /// Loads parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match [`CharLstm::parameter_count`].
    pub fn set_param_vector(&mut self, params: &ParamVec) {
        assert_eq!(
            params.len(),
            self.params.len(),
            "parameter vector has {} elements but the model has {}",
            params.len(),
            self.params.len()
        );
        self.params.copy_from_slice(params.as_slice());
    }

    /// Evaluates the mean per-token cross-entropy of one token sequence
    /// (next-character prediction), without updating any state.
    ///
    /// Returns `None` for sequences shorter than two tokens.
    pub fn sequence_loss(&self, tokens: &[usize]) -> Option<f32> {
        self.sequence_losses([tokens]).next()
    }

    /// [`CharLstm::sequence_loss`] of every sequence of at least two tokens,
    /// in order.  `&self`: the activations go to one workspace of this
    /// call's own, shared by all the sequences.
    pub(crate) fn sequence_losses<'a, I>(&'a self, sequences: I) -> impl Iterator<Item = f32> + 'a
    where
        I: IntoIterator<Item = &'a [usize]>,
        I::IntoIter: 'a,
    {
        let mut ws = Workspace::default();
        sequences
            .into_iter()
            .filter(|tokens| tokens.len() >= 2)
            .map(move |tokens| {
                forward(&self.config, &self.params, tokens, &mut ws) / (tokens.len() - 1) as f32
            })
    }

    /// Runs one SGD pass over a token sequence (forward, backprop through
    /// time, and an in-place SGD step with the given learning rate).
    /// Returns the mean per-token loss before the update, or `None` for
    /// sequences shorter than two tokens.
    pub fn train_sequence(&mut self, tokens: &[usize], learning_rate: f32) -> Option<f32> {
        if tokens.len() < 2 {
            return None;
        }
        let (v, e, h) = (
            self.config.vocab_size,
            self.config.embedding_dim,
            self.config.hidden_size,
        );
        let steps = tokens.len() - 1;
        let total_loss = forward(&self.config, &self.params, tokens, &mut self.ws);

        let [table, w_x, w_h, _, w_out, _] = self.config.split(&self.params);
        self.grads.fill(0.0);
        let [table_grad, w_x_grad, w_h_grad, bias_grad, w_out_grad, b_out_grad] =
            self.config.split_mut(&mut self.grads);
        let ws = &mut self.ws;
        ws.grad_h_next.fill(0.0);
        ws.grad_c.fill(0.0);

        for t in (0..steps).rev() {
            let (token, target) = (tokens[t], tokens[t + 1]);
            let (h_prev, h_out) = ws.h[t * h..(t + 2) * h].split_at(h);
            let c_prev = &ws.c[t * h..(t + 1) * h];

            // Output layer: softmax minus the one-hot target.
            let exp = &ws.exp[t * v..(t + 1) * v];
            let sum = ws.exp_sum[t];
            for (grad, exp) in ws.grad_logits.iter_mut().zip(exp) {
                *grad = exp / sum;
            }
            ws.grad_logits[target] -= 1.0;
            add_outer(h_out, &ws.grad_logits, w_out_grad);
            add_row_sum(&ws.grad_logits, b_out_grad);
            times_transposed(&ws.grad_logits, w_out, &mut ws.grad_h);
            for (grad, next) in ws.grad_h.iter_mut().zip(&ws.grad_h_next) {
                *grad += next;
            }

            // LSTM cell.  `grad_c` holds dL/dc_{t+1}·f_{t+1} on entry and
            // dL/dc_t·f_t on exit.
            let gates = &ws.gates[t * 4 * h..(t + 1) * 4 * h];
            let (i, f, g, o) = (
                &gates[..h],
                &gates[h..2 * h],
                &gates[2 * h..3 * h],
                &gates[3 * h..],
            );
            let tanh_c = &ws.tanh_c[t * h..(t + 1) * h];
            let (grad_i, rest) = ws.grad_gates.split_at_mut(h);
            let (grad_f, rest) = rest.split_at_mut(h);
            let (grad_g, grad_o) = rest.split_at_mut(h);
            for j in 0..h {
                let grad_h = ws.grad_h[j];
                let grad_c = ws.grad_c[j] + grad_h * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
                grad_i[j] = grad_c * g[j] * i[j] * (1.0 - i[j]);
                grad_f[j] = grad_c * c_prev[j] * f[j] * (1.0 - f[j]);
                grad_g[j] = grad_c * i[j] * (1.0 - g[j] * g[j]);
                grad_o[j] = grad_h * tanh_c[j] * o[j] * (1.0 - o[j]);
                ws.grad_c[j] = grad_c * f[j];
            }
            add_outer(&table[token * e..(token + 1) * e], &ws.grad_gates, w_x_grad);
            add_outer(h_prev, &ws.grad_gates, w_h_grad);
            add_row_sum(&ws.grad_gates, bias_grad);
            times_transposed(&ws.grad_gates, w_x, &mut ws.grad_x);
            times_transposed(&ws.grad_gates, w_h, &mut ws.grad_h_next);

            // Embedding: scatter into the row of this step's token.
            for (grad, x) in table_grad[token * e..(token + 1) * e]
                .iter_mut()
                .zip(&ws.grad_x)
            {
                *grad += x;
            }
        }

        // SGD step over all parameters.
        for (value, grad) in self.params.iter_mut().zip(&self.grads) {
            *value -= learning_rate * grad / steps as f32;
        }
        Some(total_loss / steps as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_data::text::{char_to_id, TextGenerator};

    fn tokens(text: &str) -> Vec<usize> {
        text.chars().map(char_to_id).collect()
    }

    #[test]
    fn parameter_roundtrip() {
        let model = CharLstm::new(LmConfig::tiny(), 1);
        let params = model.param_vector();
        assert_eq!(params.len(), model.parameter_count());
        let mut other = CharLstm::new(LmConfig::tiny(), 99);
        assert_ne!(other.param_vector(), params);
        other.set_param_vector(&params);
        assert_eq!(other.param_vector(), params);
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let model = CharLstm::new(LmConfig::tiny(), 2);
        let loss = model.sequence_loss(&tokens("hello world.")).unwrap();
        let uniform = (LmConfig::tiny().vocab_size as f32).ln();
        assert!(
            (loss - uniform).abs() < 0.7,
            "loss {loss} vs uniform {uniform}"
        );
    }

    #[test]
    fn training_on_one_sequence_reduces_its_loss() {
        let mut model = CharLstm::new(LmConfig::tiny(), 3);
        let seq = tokens("the quick brown fox jumps.");
        let before = model.sequence_loss(&seq).unwrap();
        for _ in 0..200 {
            model.train_sequence(&seq, 1.0);
        }
        let after = model.sequence_loss(&seq).unwrap();
        assert!(after < 0.6 * before, "loss {before} -> {after}");
    }

    #[test]
    fn training_generalizes_to_same_distribution() {
        // Train on sentences from one client generator and check loss drops
        // on fresh sentences from the same generator.
        let mut generator = TextGenerator::for_client(1, 0.2, 7);
        let train: Vec<Vec<usize>> = (0..30).map(|_| generator.sentence(4)).collect();
        let test: Vec<Vec<usize>> = (0..10).map(|_| generator.sentence(4)).collect();
        let mut model = CharLstm::new(LmConfig::tiny(), 5);
        let eval = |m: &CharLstm| -> f32 {
            let losses: Vec<f32> = test.iter().filter_map(|s| m.sequence_loss(s)).collect();
            losses.iter().sum::<f32>() / losses.len() as f32
        };
        let before = eval(&model);
        for _ in 0..3 {
            for seq in &train {
                model.train_sequence(seq, 0.3);
            }
        }
        let after = eval(&model);
        assert!(after < before, "test loss {before} -> {after}");
    }

    #[test]
    fn short_sequences_are_skipped() {
        let mut model = CharLstm::new(LmConfig::tiny(), 1);
        assert!(model.sequence_loss(&[0]).is_none());
        assert!(model.train_sequence(&[0], 0.1).is_none());
        assert!(model.sequence_loss(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "LmConfig::hidden_size must be positive")]
    fn zero_dimension_is_rejected_by_name() {
        let config = LmConfig {
            hidden_size: 0,
            ..LmConfig::tiny()
        };
        let _ = CharLstm::new(config, 1);
    }

    #[test]
    fn select_form_sigmoid_is_the_two_branch_one() {
        fn two_branch(x: f32) -> f32 {
            if x >= 0.0 {
                1.0 / (1.0 + math::exp(-x))
            } else {
                let e = math::exp(x);
                e / (1.0 + e)
            }
        }
        let grid = (-8_000..=8_000).map(|i| i as f32 / 64.0);
        let edges = [
            0.0, -0.0, 1e-30, -1e-30, 88.8, -88.8, 104.0, -104.0, 1e30, -1e30,
        ];
        for x in grid.chain(edges) {
            assert_eq!(
                sigmoid(x).to_bits(),
                two_branch(x).to_bits(),
                "sigmoid({x})"
            );
        }
        assert!(sigmoid(f32::NAN).is_nan());
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn train_sequence_returns_pre_update_loss() {
        let mut model = CharLstm::new(LmConfig::tiny(), 4);
        let seq = tokens("abcabcabc.");
        let reported = model.train_sequence(&seq, 0.1).unwrap();
        let uniform = (LmConfig::tiny().vocab_size as f32).ln();
        assert!((reported - uniform).abs() < 1.0);
    }
}
