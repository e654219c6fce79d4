//! The character-level LSTM language model.
//!
//! One fused model over flat vectors: the parameters are a single
//! `Vec<f32>` in [`CharLstm::param_vector`] order (embedding table, LSTM
//! `w_x`, `w_h` and gate bias, output weight and bias), the gradient is a
//! second vector of the same layout, and every per-step activation that
//! backpropagation through time needs lives in one workspace that is
//! resized once per sequence.  Nothing is allocated per time step.
//!
//! Only the recurrence runs step by step; every product it does not need
//! runs once per sequence, as one matrix product over all steps (the RNN
//! layout of Appleyard et al., arXiv:1604.01946):
//!
//! * forward: the input projections `x_t·w_x` of all steps before the
//!   recurrence, `h_{t−1}·w_h` in it, and the logits `h_t·w_out` of all
//!   steps after it;
//! * backward: the softmax gradients of all steps, then `dw_out`, `db_out`
//!   and the output layer's share of every `dL/dh_t`; the recurrence keeps
//!   every step's gate gradient, and `dw_x`, `dw_h`, the gate bias
//!   gradient and every step's input gradient follow it.
//!
//! The products run on one register-tiled kernel, the weight gradients on
//! one tiled outer-product sum; `g·Wᵀ` multiplies by a transposed copy of
//! `W` made once per sequence, as the weights only change at the SGD step.
//!
//! Every sum below runs in one fixed order and every product keeps its
//! association, because the deltas this model produces feed
//! `Report::fingerprint`.  `tests/fused_vs_reference.rs` writes the same
//! network out as the textbook equations over `Vec<Vec<f32>>` rows, with
//! the sums in the same order, and compares the two bit for bit.  Gate
//! order is `[input, forget, cell, output]`.  `exp`, `tanh` and `ln` come
//! from `papaya_data::math`, never from libm, so the bits are the same on
//! every host.
//!
//! Both passes are compiled twice from one body: for the target's baseline
//! and, on x86-64, for AVX2, which the CPU picks at run time (the private
//! `dispatch` module).  IEEE basic operations in the same order give the
//! same bits at any vector width, and nothing here fuses a multiply with an
//! add, so the two builds agree bit for bit.

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
#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    let e = math::exp(-x.abs());
    let numerator = if x >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

/// Rows of the register tile of a many-row product.
const TILE_ROWS: usize = 4;
/// Columns of that tile: one AVX2 register, or two SSE2 ones, per row.
const TILE_COLS: usize = 8;
/// Columns of the one-row tile, which takes a product of fewer rows than
/// [`TILE_ROWS`]: the recurrence's `h·w_h` and `g·w_hᵀ` are one row each
/// and want as many independent sums as the registers hold.
const ROW_TILE_COLS: usize = 32;

/// The left operand of [`tiled`]: element `(row, k)` sits at
/// `data[row * row_stride + k * k_stride]`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

/// `out = a · b` for a row-major `(rows, k)` matrix `a` and `(k, n)` matrix
/// `b`: each output sums `a[r][k]·b[k][j]` over `k` ascending from `0.0`.
#[inline(always)]
fn times(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let lhs = Lhs {
        data: a,
        row_stride: b.len() / n,
        k_stride: 1,
    };
    tiled::<false>(lhs, b, n, out);
}

/// `out[i][j] = Σ_t a[t][i]·g[t][j]` for row-major `(steps, out rows)` and
/// `(steps, n)` matrices, over `t` descending from `0.0`: a weight
/// gradient, each step's term added in the order backpropagation through
/// time visits the steps.
#[inline(always)]
fn outer_sum(a: &[f32], g: &[f32], n: usize, out: &mut [f32]) {
    let lhs = Lhs {
        data: a,
        row_stride: 1,
        k_stride: out.len() / n,
    };
    tiled::<true>(lhs, g, n, out);
}

/// `out[r][j] = Σ_k lhs(r, k)·b[k][j]` for a row-major `(depth, n)` `b`,
/// each sum over `k` ascending, or descending if `DESCENDING`, from `0.0`.
/// Blocks of [`TILE_ROWS`] rows take `TILE_ROWS × TILE_COLS` tiles, the
/// rows left over one-row tiles of [`ROW_TILE_COLS`]; narrower tiles take
/// the columns left over.  Every output has a sum of its own, so tiling
/// changes no bit.
#[inline(always)]
fn tiled<const DESCENDING: bool>(lhs: Lhs, b: &[f32], n: usize, out: &mut [f32]) {
    let rows = out.len() / n;
    let mut row = 0;
    while row + TILE_ROWS <= rows {
        columns::<TILE_ROWS, TILE_COLS, DESCENDING>(lhs, b, n, row, out);
        row += TILE_ROWS;
    }
    for row in row..rows {
        columns::<1, ROW_TILE_COLS, DESCENDING>(lhs, b, n, row, out);
    }
}

/// Rows `row .. row + R` of [`tiled`]: tiles `W` columns wide, then
/// [`TILE_COLS`], four and one.
#[inline(always)]
fn columns<const R: usize, const W: usize, const DESCENDING: bool>(
    lhs: Lhs,
    b: &[f32],
    n: usize,
    row: usize,
    out: &mut [f32],
) {
    let mut col = 0;
    while col + W <= n {
        tile::<R, W, DESCENDING>(lhs, b, n, row, col, out);
        col += W;
    }
    while col + TILE_COLS <= n {
        tile::<R, TILE_COLS, DESCENDING>(lhs, b, n, row, col, out);
        col += TILE_COLS;
    }
    if col + 4 <= n {
        tile::<R, 4, DESCENDING>(lhs, b, n, row, col, out);
        col += 4;
    }
    for col in col..n {
        tile::<R, 1, DESCENDING>(lhs, b, n, row, col, out);
    }
}

/// One `R × C` block of [`tiled`]'s output at `(row, col)`, its sums held
/// in registers across the whole depth.
#[inline(always)]
fn tile<const R: usize, const C: usize, const DESCENDING: bool>(
    lhs: Lhs,
    b: &[f32],
    n: usize,
    row: usize,
    col: usize,
    out: &mut [f32],
) {
    let depth = b.len() / n;
    let mut acc = [[0.0f32; C]; R];
    for step in 0..depth {
        let k = if DESCENDING { depth - 1 - step } else { step };
        let b_row = &b[k * n + col..k * n + col + C];
        for (r, acc) in acc.iter_mut().enumerate() {
            let a = lhs.data[(row + r) * lhs.row_stride + k * lhs.k_stride];
            for (acc, b) in acc.iter_mut().zip(b_row) {
                *acc += a * b;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let start = (row + r) * n + col;
        out[start..start + C].copy_from_slice(acc);
    }
}

/// `out[j] = Σ_t g[t][j]` over `t` descending from `0.0`: a bias gradient.
#[inline(always)]
fn sum_rows(g: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for row in g.chunks_exact(out.len()).rev() {
        for (o, x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// `out = wᵀ` for a row-major matrix `w` with `cols` columns.
#[inline(always)]
fn transpose(w: &[f32], cols: usize, out: &mut [f32]) {
    let rows = w.len() / cols;
    for (i, w_row) in w.chunks_exact(cols).enumerate() {
        for (j, &value) in w_row.iter().enumerate() {
            out[j * rows + i] = value;
        }
    }
}

/// Per-step activations and gradients of one sequence.  Training keeps one
/// for the model's lifetime, evaluation one per
/// [`CharLstm::sequence_losses`] call; the buffers keep their capacity from
/// one sequence to the next.
#[derive(Clone, Debug, Default)]
struct Workspace {
    /// The embedded inputs `x_t`, one row of `embed` a step.
    x: Vec<f32>,
    /// `x_t · w_x` of every step, one row of `4 * hidden` each.
    from_x: Vec<f32>,
    /// `h_{t−1} · w_h` of the current step; the reference adds the two
    /// finished sums, so it cannot accumulate into `from_x`.
    from_h: Vec<f32>,
    /// Hidden states `h_0 ..= h_steps`, one row of `hidden` each; row 0 is
    /// the zero initial state and is never written.
    h: Vec<f32>,
    /// Cell states, laid out like `h`.
    c: Vec<f32>,
    /// Activated gates `[i | f | g | o]`, one row of `4 * hidden` a step.
    gates: Vec<f32>,
    /// `tanh(c_t)`, computed once by the forward step and reused backward.
    tanh_c: Vec<f32>,
    /// The logits, then `exp(logit - max)`, one row of `vocab` a step;
    /// divided by `exp_sum` it is the softmax, which is the logit gradient
    /// up to the `- 1` at the target.
    exp: Vec<f32>,
    /// Sum of each `exp` row.
    exp_sum: Vec<f32>,
    /// Backward, every step's row: the gradients of the logits, of
    /// the hidden state (the output layer's share, then the total), of the
    /// pre-activation gates and of the embedded input.
    grad_logits: Vec<f32>,
    grad_h: Vec<f32>,
    grad_gates: Vec<f32>,
    grad_x: Vec<f32>,
    /// Backward: the part of `dL/dh_t` arriving from step `t + 1`,
    /// and the cell state's gradient.
    grad_h_next: Vec<f32>,
    grad_c: Vec<f32>,
    /// Backward: `w_xᵀ`, `w_hᵀ` and `w_outᵀ`, made once per sequence.
    w_x_t: Vec<f32>,
    w_h_t: Vec<f32>,
    w_out_t: Vec<f32>,
}

impl Workspace {
    /// Sizes every buffer for a sequence of `steps` steps: the only place
    /// the model's hot path can allocate.
    fn resize(&mut self, config: &LmConfig, steps: usize) {
        let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
        self.x.resize(steps * e, 0.0);
        self.from_x.resize(steps * 4 * h, 0.0);
        self.from_h.resize(4 * h, 0.0);
        self.h.resize((steps + 1) * h, 0.0);
        self.c.resize((steps + 1) * h, 0.0);
        self.gates.resize(steps * 4 * h, 0.0);
        self.tanh_c.resize(steps * h, 0.0);
        self.exp.resize(steps * v, 0.0);
        self.exp_sum.resize(steps, 0.0);
        self.grad_logits.resize(steps * v, 0.0);
        self.grad_h.resize(steps * h, 0.0);
        self.grad_gates.resize(steps * 4 * h, 0.0);
        self.grad_x.resize(steps * e, 0.0);
        self.grad_h_next.resize(h, 0.0);
        self.grad_c.resize(h, 0.0);
        self.w_x_t.resize(4 * h * e, 0.0);
        self.w_h_t.resize(4 * h * h, 0.0);
        self.w_out_t.resize(v * h, 0.0);
    }
}

/// Runs the network over `tokens[..steps]`, predicting `tokens[1..]`, and
/// leaves every activation in `ws`.  Returns the summed per-token
/// cross-entropy.  Only [`dispatch`] calls it, once per build.
///
/// # Panics
///
/// Panics if a token id is outside the vocabulary.
#[inline(always)]
fn forward(config: &LmConfig, params: &[f32], tokens: &[usize], ws: &mut Workspace) -> f32 {
    let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
    let [table, w_x, w_h, bias, w_out, b_out] = config.split(params);
    let steps = tokens.len() - 1;
    ws.resize(config, steps);

    // Every step's input projection, before the recurrence.
    for (x, pair) in ws.x.chunks_exact_mut(e).zip(tokens.windows(2)) {
        let (token, target) = (pair[0], pair[1]);
        assert!(token < v, "token id {token} out of range");
        assert!(target < v, "target {target} out of range");
        x.copy_from_slice(&table[token * e..(token + 1) * e]);
    }
    times(&ws.x, w_x, 4 * h, &mut ws.from_x);

    for t in 0..steps {
        let (h_prev, h_out) = ws.h[t * h..(t + 2) * h].split_at_mut(h);
        let (c_prev, c_out) = ws.c[t * h..(t + 2) * h].split_at_mut(h);

        // Pre-activations: (x·w_x + h·w_h) + bias.
        times(h_prev, w_h, 4 * h, &mut ws.from_h);
        let gates = &mut ws.gates[t * 4 * h..(t + 1) * 4 * h];
        let from_x = &ws.from_x[t * 4 * h..(t + 1) * 4 * h];
        let sums = from_x.iter().zip(&ws.from_h).zip(bias);
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
    }

    // Every step's logits after it, then softmax cross-entropy against the
    // next token.
    times(&ws.h[h..], w_out, v, &mut ws.exp);
    let mut total_loss = 0.0f32;
    let rows = ws.exp.chunks_exact_mut(v).zip(&mut ws.exp_sum);
    for ((exp, exp_sum), &target) in rows.zip(&tokens[1..]) {
        for (logit, bias) in exp.iter_mut().zip(b_out) {
            *logit += bias;
        }
        let max = exp.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let target_logit = exp[target];
        for logit in exp.iter_mut() {
            *logit = math::exp(*logit - max);
        }
        let sum: f32 = exp.iter().sum();
        *exp_sum = sum;
        total_loss += (math::ln(sum) + max) - target_logit;
    }
    total_loss
}

/// [`CharLstm::train_sequence`] on a sequence of at least two tokens:
/// [`forward`], backpropagation through time and the SGD step.  Returns the
/// mean per-token loss before the update.  Only [`dispatch`] calls it,
/// once per build.
#[inline(always)]
fn train(model: &mut CharLstm, tokens: &[usize], learning_rate: f32) -> f32 {
    let CharLstm {
        config,
        params,
        grads,
        ws,
    } = model;
    let (v, e, h) = (config.vocab_size, config.embedding_dim, config.hidden_size);
    let steps = tokens.len() - 1;
    let total_loss = forward(config, params, tokens, ws);

    let [_, w_x, w_h, _, w_out, _] = config.split(params);
    let [table_grad, w_x_grad, w_h_grad, bias_grad, w_out_grad, b_out_grad] =
        config.split_mut(grads);
    transpose(w_x, 4 * h, &mut ws.w_x_t);
    transpose(w_h, 4 * h, &mut ws.w_h_t);
    transpose(w_out, v, &mut ws.w_out_t);

    // Output layer: every step's softmax minus its one-hot target, then the
    // output weights' gradients and the output's share of every dL/dh_t.
    let outputs = ws.exp.chunks_exact(v).zip(&ws.exp_sum).zip(&tokens[1..]);
    for (grad, ((exp, &sum), &target)) in ws.grad_logits.chunks_exact_mut(v).zip(outputs) {
        for (grad, exp) in grad.iter_mut().zip(exp) {
            *grad = exp / sum;
        }
        grad[target] -= 1.0;
    }
    outer_sum(&ws.h[h..], &ws.grad_logits, v, w_out_grad);
    sum_rows(&ws.grad_logits, b_out_grad);
    times(&ws.grad_logits, &ws.w_out_t, h, &mut ws.grad_h);

    // The recurrence, keeping every step's gate gradient.  `grad_c` holds
    // dL/dc_{t+1}·f_{t+1} on entry and dL/dc_t·f_t on exit.
    ws.grad_h_next.fill(0.0);
    ws.grad_c.fill(0.0);
    for t in (0..steps).rev() {
        let grad_h = &mut ws.grad_h[t * h..(t + 1) * h];
        for (grad, next) in grad_h.iter_mut().zip(&ws.grad_h_next) {
            *grad += next;
        }
        let c_prev = &ws.c[t * h..(t + 1) * h];
        let gates = &ws.gates[t * 4 * h..(t + 1) * 4 * h];
        let (i, f, g, o) = (
            &gates[..h],
            &gates[h..2 * h],
            &gates[2 * h..3 * h],
            &gates[3 * h..],
        );
        let tanh_c = &ws.tanh_c[t * h..(t + 1) * h];
        let grad_gates = &mut ws.grad_gates[t * 4 * h..(t + 1) * 4 * h];
        let (grad_i, rest) = grad_gates.split_at_mut(h);
        let (grad_f, rest) = rest.split_at_mut(h);
        let (grad_g, grad_o) = rest.split_at_mut(h);
        for j in 0..h {
            let grad_h = grad_h[j];
            let grad_c = ws.grad_c[j] + grad_h * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
            grad_i[j] = grad_c * g[j] * i[j] * (1.0 - i[j]);
            grad_f[j] = grad_c * c_prev[j] * f[j] * (1.0 - f[j]);
            grad_g[j] = grad_c * i[j] * (1.0 - g[j] * g[j]);
            grad_o[j] = grad_h * tanh_c[j] * o[j] * (1.0 - o[j]);
            ws.grad_c[j] = grad_c * f[j];
        }
        if t > 0 {
            times(grad_gates, &ws.w_h_t, h, &mut ws.grad_h_next);
        }
    }

    // The LSTM weights' gradients and every step's input gradient.  Step 0's
    // `h_prev` is zero, so `dw_h` starts at step 1.
    outer_sum(&ws.x, &ws.grad_gates, 4 * h, w_x_grad);
    let h_prev = &ws.h[h..steps * h];
    outer_sum(h_prev, &ws.grad_gates[4 * h..], 4 * h, w_h_grad);
    sum_rows(&ws.grad_gates, bias_grad);
    times(&ws.grad_gates, &ws.w_x_t, e, &mut ws.grad_x);

    // Embedding: scatter into the rows of the steps' tokens, last step first.
    table_grad.fill(0.0);
    for (grad_x, &token) in ws.grad_x.chunks_exact(e).zip(&tokens[..steps]).rev() {
        let row = &mut table_grad[token * e..(token + 1) * e];
        for (grad, x) in row.iter_mut().zip(grad_x) {
            *grad += x;
        }
    }

    // SGD step over all parameters.
    for (value, grad) in params.iter_mut().zip(grads.iter()) {
        *value -= learning_rate * grad / steps as f32;
    }
    total_loss / steps as f32
}

/// The two builds of [`forward`] and [`train`] and the run-time choice
/// between them: the target's baseline everywhere, and AVX2 on x86-64 CPUs
/// that have it.  The CPU decides; there is no switch.  Both builds inline
/// the same body, so they run the same operations in the same order and
/// agree bit for bit (`tests::avx2_matches_portable`).  This module holds
/// the crate's only `unsafe`: one call per entry into the AVX2 build.
#[expect(
    unsafe_code,
    reason = "one call per entry into the AVX2 build, after the CPU check"
)]
mod dispatch {
    use super::{CharLstm, LmConfig, Workspace};

    /// Whether this CPU runs the AVX2 build.  `std` caches the answer, so
    /// asking per sequence costs a load.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(super) fn avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// [`super::forward`] in the build this CPU runs.
    #[inline]
    pub(super) fn forward(
        config: &LmConfig,
        params: &[f32],
        tokens: &[usize],
        ws: &mut Workspace,
    ) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` has just confirmed AVX2, the only feature
            // `forward_avx2` enables.
            return unsafe { forward_avx2(config, params, tokens, ws) };
        }
        forward_portable(config, params, tokens, ws)
    }

    /// [`super::train`] in the build this CPU runs.
    #[inline]
    pub(super) fn train(model: &mut CharLstm, tokens: &[usize], learning_rate: f32) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` has just confirmed AVX2, the only feature
            // `train_avx2` enables.
            return unsafe { train_avx2(model, tokens, learning_rate) };
        }
        train_portable(model, tokens, learning_rate)
    }

    /// [`super::forward`] for the target's baseline.
    pub(super) fn forward_portable(
        config: &LmConfig,
        params: &[f32],
        tokens: &[usize],
        ws: &mut Workspace,
    ) -> f32 {
        super::forward(config, params, tokens, ws)
    }

    /// [`super::train`] for the target's baseline.
    pub(super) fn train_portable(
        model: &mut CharLstm,
        tokens: &[usize],
        learning_rate: f32,
    ) -> f32 {
        super::train(model, tokens, learning_rate)
    }

    /// [`super::forward`] for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forward_avx2(
        config: &LmConfig,
        params: &[f32],
        tokens: &[usize],
        ws: &mut Workspace,
    ) -> f32 {
        super::forward(config, params, tokens, ws)
    }

    /// [`super::train`] for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn train_avx2(model: &mut CharLstm, tokens: &[usize], learning_rate: f32) -> f32 {
        super::train(model, tokens, learning_rate)
    }
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

    /// Shapes of all parameter matrices, in the flattening order used by
    /// [`CharLstm::param_vector`].
    pub fn parameter_shapes(&self) -> Vec<(usize, usize)> {
        self.config.shapes().to_vec()
    }

    /// Flattens all parameters into a single vector.
    pub fn param_vector(&self) -> ParamVec {
        ParamVec::from_vec(self.params.clone())
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
                dispatch::forward(&self.config, &self.params, tokens, &mut ws)
                    / (tokens.len() - 1) as f32
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
        Some(dispatch::train(self, tokens, learning_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_data::text::{char_to_id, TextGenerator};

    impl CharLstm {
        /// Total number of scalar parameters.
        fn parameter_count(&self) -> usize {
            self.params.len()
        }

        /// Loads parameters from a flat vector.
        ///
        /// # Panics
        ///
        /// Panics if the length does not match [`CharLstm::parameter_count`].
        fn set_param_vector(&mut self, params: &ParamVec) {
            assert_eq!(
                params.len(),
                self.params.len(),
                "parameter vector has {} elements but the model has {}",
                params.len(),
                self.params.len()
            );
            self.params.copy_from_slice(params.as_slice());
        }
    }

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
        #[expect(clippy::disallowed_methods, reason = "host libm as a test oracle only")]
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

    /// The AVX2 build against the portable one, the reference it must
    /// reproduce bit for bit, on drawn shapes.  Prints which build ran, so
    /// a CI log shows whether the runner has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_portable() {
        if !dispatch::avx2() {
            println!("avx2_matches_portable: skipped, this CPU lacks AVX2");
            return;
        }
        println!("avx2_matches_portable: AVX2 build against the portable one");
        dispatched_build_matches_portable();
    }

    /// The portable build's [`CharLstm::sequence_losses`].
    #[cfg(target_arch = "x86_64")]
    fn portable_losses(model: &CharLstm, sequences: &[Vec<usize>]) -> Vec<u32> {
        let mut ws = Workspace::default();
        let long_enough = sequences.iter().filter(|tokens| tokens.len() >= 2);
        long_enough
            .map(|tokens| {
                let total =
                    dispatch::forward_portable(&model.config, &model.params, tokens, &mut ws);
                (total / (tokens.len() - 1) as f32).to_bits()
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn param_bits(model: &CharLstm) -> Vec<u32> {
        model.params.iter().map(|v| v.to_bits()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        fn dispatched_build_matches_portable(
            vocab_size in 2usize..=40,
            embedding_dim in 1usize..=17,
            hidden_size in 1usize..=33,
            seed in proptest::prelude::any::<u64>(),
            learning_rate in 0.01f32..2.0,
            drawn in proptest::collection::vec(
                proptest::collection::vec(0usize..40, 0..=40),
                1..5,
            ),
        ) {
            let config = LmConfig { vocab_size, embedding_dim, hidden_size };
            let sequences: Vec<Vec<usize>> = drawn
                .iter()
                .map(|tokens| tokens.iter().map(|t| t % vocab_size).collect())
                .collect();
            let mut dispatched = CharLstm::new(config, seed);
            let mut portable = dispatched.clone();
            for tokens in &sequences {
                let trained = dispatched.train_sequence(tokens, learning_rate);
                let reference = (tokens.len() >= 2)
                    .then(|| dispatch::train_portable(&mut portable, tokens, learning_rate));
                proptest::prop_assert_eq!(trained.map(f32::to_bits), reference.map(f32::to_bits));
                proptest::prop_assert_eq!(param_bits(&dispatched), param_bits(&portable));
            }
            let evaluated: Vec<u32> = dispatched
                .sequence_losses(sequences.iter().map(Vec::as_slice))
                .map(f32::to_bits)
                .collect();
            proptest::prop_assert_eq!(evaluated, portable_losses(&portable, &sequences));
        }
    }

    #[test]
    fn train_sequence_returns_pre_update_loss() {
        let mut model = CharLstm::new(LmConfig::tiny(), 4);
        let seq = tokens("abcabcabc.");
        let reported = model.train_sequence(&seq, 0.1).unwrap();
        #[expect(clippy::disallowed_methods, reason = "host libm as a test oracle only")]
        let uniform = (LmConfig::tiny().vocab_size as f32).ln();
        assert!((reported - uniform).abs() < 1.0);
    }
}
