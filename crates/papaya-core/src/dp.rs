//! The [`DpAggregator`] decorator: user-level differential privacy for any
//! aggregation strategy.
//!
//! PAPAYA's title promises *private* federated learning on two legs: secure
//! aggregation (the server never sees an individual update — [`crate::secure`])
//! and differential privacy (the released aggregate provably bounds what
//! *anyone* can learn about one user).  This module is the second leg, in the
//! same decorator shape as [`SecureAggregator`](crate::secure::SecureAggregator):
//!
//! * on [`accumulate`](Aggregator::accumulate) each update's delta is
//!   **L2-clipped** to [`DpConfig::clip_bound`] before the wrapped strategy
//!   sees it — bounding every user's contribution is what gives the release
//!   a finite sensitivity;
//! * on [`take`](Aggregator::take) seeded Gaussian noise of standard
//!   deviation `clip_bound * noise_multiplier * max_weight / weight_total`
//!   is added to the released weighted average — the central-DP Gaussian
//!   mechanism over the buffer's weighted sum, whose L2 sensitivity to one
//!   user is at most `max_weight * clip_bound` (the largest weight folded
//!   into the buffer — pure public metadata — times the clip bound),
//!   divided out with the public weight total.  With uniform unit weights
//!   this reduces to the textbook `clip_bound * noise_multiplier / K`;
//!   under example-count weighting the `max_weight` factor is what keeps
//!   the accountant's ε honest for the heaviest client;
//! * every release is fed into a [`PrivacyAccountant`] — Rényi-DP (moments)
//!   accounting for the subsampled Gaussian mechanism, composed across
//!   releases and queried as [`epsilon(delta)`](PrivacyAccountant::epsilon).
//!
//! # Stacking with secure aggregation
//!
//! `DpAggregator` composes with the secure pipeline as the **outer** layer:
//! `dp(secure(strategy))`.  Clipping then happens on the client before the
//! update is masked (clients clip locally — the host never needs the clear
//! delta), and the noise is added to the *decoded* release — exactly where
//! the paper's TEE would add it, since only the TSA ever holds the unmasked
//! aggregate.  The reverse nesting (`secure(dp(...))`) would mask unclipped
//! deltas and noise only the reference path, so
//! [`crate::config::TaskConfig`]-driven wiring always builds DP outermost.
//!
//! The noise RNG is seeded deterministically and every protocol step runs
//! inside `accumulate`/`take`/`reset` on the event-loop thread, so reports
//! stay bit-identical at any training parallelism.  With
//! `noise_multiplier == 0` the noise step is skipped entirely (not "adds a
//! zero"), so a zero-noise DP run is **bit-exact** against the clear run —
//! the equivalence the `dp_equivalence` suite pins.

use crate::aggregator::{AccumulateOutcome, Aggregator, AggregatorStats, StackTelemetry};
use crate::client::ClientUpdate;
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_nn::params::ParamVec;

/// Differential-privacy configuration of one task.
///
/// Deliberately agnostic of the task's [`TrainingMode`](crate::TrainingMode):
/// clipping and release noise apply identically to FedBuff buffers,
/// synchronous cohorts, and deadline partials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DpConfig {
    /// L2 bound every accepted update is clipped to (the per-user
    /// contribution bound `C`).  Must be positive and finite.
    pub clip_bound: f64,
    /// Noise multiplier `z`: each release carries Gaussian noise of std
    /// `clip_bound * z * max_weight / weight_total` (noise per unit of the
    /// release's per-user sensitivity).  `0` disables noise (and makes the
    /// run bit-exact against a clear run); must be non-negative and finite.
    pub noise_multiplier: f64,
    /// Per-release user sampling probability `q` assumed by the accountant
    /// (the fraction of the user population contributing to one buffer).
    /// `1.0` — the conservative default — claims no subsampling
    /// amplification and is always sound.  Must be in `(0, 1]`.
    ///
    /// **Caveat:** the amplified bound assumes each user enters a release
    /// independently with probability `q` (Poisson sampling).  Buffered
    /// asynchronous selection is speed-biased — fast devices land in far
    /// more buffers than `q` suggests — so an amplified ε under FedBuff is
    /// a modeling approximation for the *typical* user, not a worst-case
    /// certificate; deployments wanting a certificate keep the default.
    pub sampling_rate: f64,
    /// The `δ` at which the cumulative privacy loss is tracked (budget
    /// checks, telemetry, reports).  Must be in `(0, 1)`.
    pub target_delta: f64,
    /// Optional `ε` budget: once the accountant's cumulative
    /// `epsilon(target_delta)` reaches this value, scenario drivers stop
    /// the run (`StopReason::PrivacyBudgetExhausted` in `papaya-sim`).
    /// Requires a positive noise multiplier (a noiseless mechanism has
    /// infinite ε and would stop on the first release).
    pub epsilon_budget: Option<f64>,
}

impl DpConfig {
    /// A DP configuration with the given clip bound and noise multiplier,
    /// no subsampling amplification (`sampling_rate = 1`), `δ = 1e-6`, and
    /// no ε budget.
    pub fn new(clip_bound: f64, noise_multiplier: f64) -> Self {
        DpConfig {
            clip_bound,
            noise_multiplier,
            sampling_rate: 1.0,
            target_delta: 1e-6,
            epsilon_budget: None,
        }
    }

    /// Sets the accountant's per-release sampling probability.
    pub fn with_sampling_rate(mut self, q: f64) -> Self {
        self.sampling_rate = q;
        self
    }

    /// Sets the `δ` the cumulative ε is tracked at.
    pub fn with_target_delta(mut self, delta: f64) -> Self {
        self.target_delta = delta;
        self
    }

    /// Sets the ε budget the scenario stops at.
    pub fn with_epsilon_budget(mut self, epsilon: f64) -> Self {
        self.epsilon_budget = Some(epsilon);
        self
    }

    /// Panics unless every knob is in its valid range; called by
    /// scenario-side config validation and by [`DpAggregator::new`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite clip bound, a negative or
    /// non-finite noise multiplier, a sampling rate outside `(0, 1]`, a
    /// `target_delta` outside `(0, 1)`, or an ε budget that is non-positive
    /// or combined with `noise_multiplier == 0`.
    pub fn validate(&self) {
        // Exhaustive destructure: a new DP knob must be range-checked here
        // (or explicitly ignored) before it compiles — the same choke-point
        // discipline as the scenario's TaskConfig validation.
        let DpConfig {
            clip_bound,
            noise_multiplier,
            sampling_rate,
            target_delta,
            epsilon_budget,
        } = *self;
        assert!(
            clip_bound.is_finite() && clip_bound > 0.0,
            "dp: clip bound must be positive and finite, got {clip_bound}"
        );
        assert!(
            noise_multiplier.is_finite() && noise_multiplier >= 0.0,
            "dp: noise multiplier must be non-negative and finite, got {noise_multiplier}"
        );
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "dp: sampling rate must be in (0, 1], got {sampling_rate}"
        );
        assert!(
            target_delta > 0.0 && target_delta < 1.0,
            "dp: target delta must be in (0, 1), got {target_delta}"
        );
        if let Some(budget) = epsilon_budget {
            assert!(
                budget > 0.0,
                "dp: epsilon budget must be positive, got {budget}"
            );
            assert!(
                noise_multiplier > 0.0,
                "dp: an epsilon budget requires noise (noise_multiplier > 0); \
                 a noiseless mechanism has infinite epsilon and would stop on \
                 the first release"
            );
        }
    }
}

/// Rényi orders the accountant evaluates.  Integer orders admit the exact
/// binomial-expansion bound for the subsampled Gaussian mechanism; the tail
/// entries cover the high-privacy regime where the optimal order is large.
const RDP_ORDERS: &[u64] = &[
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
    28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
    52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 72, 80, 96, 128, 192, 256, 384, 512,
];

/// Rényi-DP (moments) accountant for the subsampled Gaussian mechanism.
///
/// Each recorded release is one application of the Gaussian mechanism with
/// noise multiplier `z` over a `q`-sampled user population.  Per-release
/// Rényi divergences are computed once at construction — at integer orders
/// `α` via the exact binomial expansion of the sampled-Gaussian pair
/// (Mironov, Talwar, Zhang, *Rényi Differential Privacy of the Sampled
/// Gaussian Mechanism*, 2019):
///
/// ```text
/// ε_α = ln Σ_{k=0..α} C(α,k) (1−q)^{α−k} q^k e^{(k²−k)/(2z²)}  / (α−1)
/// ```
///
/// — composed linearly across releases, and converted to `(ε, δ)` with the
/// standard bound `ε(δ) = min_α [ T·ε_α + ln(1/δ)/(α−1) ]`.  For `q = 1`
/// (no subsampling) the Rényi curve is exactly `α/(2z²)` for *all* real
/// `α > 1`, so the conversion is minimized in closed form instead of over
/// the grid:
///
/// ```text
/// ε(δ) = T/(2z²) + 2·sqrt( T/(2z²) · ln(1/δ) )
/// ```
///
/// The closed form is also applied as a cap for `q < 1` (subsampling only
/// ever shrinks the per-release Rényi divergence — joint quasi-convexity),
/// which keeps the conversion tight in the high-ε regime where the optimal
/// real order drops below the grid's `α = 2`.
#[derive(Clone, Debug)]
pub struct PrivacyAccountant {
    sampling_rate: f64,
    noise_multiplier: f64,
    releases: u64,
    /// Per-release Rényi divergence at each of [`RDP_ORDERS`] (empty for
    /// the `q == 1` closed form and for `z == 0`).
    rdp_per_release: Vec<f64>,
}

impl PrivacyAccountant {
    /// Creates an accountant for releases of the subsampled Gaussian
    /// mechanism with sampling probability `q` and noise multiplier `z`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]` or `z` is negative or non-finite.
    pub fn new(sampling_rate: f64, noise_multiplier: f64) -> Self {
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "sampling rate must be in (0, 1], got {sampling_rate}"
        );
        assert!(
            noise_multiplier.is_finite() && noise_multiplier >= 0.0,
            "noise multiplier must be non-negative and finite, got {noise_multiplier}"
        );
        let rdp_per_release = if sampling_rate == 1.0 || noise_multiplier == 0.0 {
            Vec::new()
        } else {
            RDP_ORDERS
                .iter()
                .map(|&alpha| subsampled_gaussian_rdp(sampling_rate, noise_multiplier, alpha))
                .collect()
        };
        PrivacyAccountant {
            sampling_rate,
            noise_multiplier,
            releases: 0,
            rdp_per_release,
        }
    }

    /// Builds the accountant a [`DpConfig`] asks for.
    pub fn for_config(config: &DpConfig) -> Self {
        Self::new(config.sampling_rate, config.noise_multiplier)
    }

    /// Records one mechanism release (one noised aggregate published).
    pub fn record_release(&mut self) {
        self.releases = self.releases.saturating_add(1);
    }

    /// Number of releases recorded so far.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// The accountant's sampling probability `q`.
    pub fn sampling_rate(&self) -> f64 {
        self.sampling_rate
    }

    /// The accountant's noise multiplier `z`.
    pub fn noise_multiplier(&self) -> f64 {
        self.noise_multiplier
    }

    /// The cumulative `(ε, δ)` privacy loss after the recorded releases:
    /// `0` before any release, `∞` for a noiseless mechanism, otherwise the
    /// tightest conversion over the Rényi orders.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0, 1), got {delta}"
        );
        if self.releases == 0 {
            return 0.0;
        }
        if self.noise_multiplier == 0.0 {
            return f64::INFINITY;
        }
        let log_inv_delta = (1.0 / delta).ln();
        let releases = self.releases as f64;
        // The unsampled Gaussian curve T·α/(2z²) holds for every real
        // α > 1, so its conversion minimizes in closed form
        // (α* = 1 + sqrt(L/a)) — and by joint quasi-convexity of the Rényi
        // divergence, subsampling can only shrink the per-release
        // divergence, so the closed form is a valid bound at every
        // sampling rate.  It wins in the high-ε regime, where the optimal
        // order drops below the integer grid's α = 2.
        let a = releases / (2.0 * self.noise_multiplier * self.noise_multiplier);
        let unsampled = a + 2.0 * (a * log_inv_delta).sqrt();
        if self.sampling_rate == 1.0 {
            return unsampled;
        }
        RDP_ORDERS
            .iter()
            .zip(&self.rdp_per_release)
            .map(|(&alpha, &rdp)| releases * rdp + log_inv_delta / (alpha as f64 - 1.0))
            .fold(unsampled, f64::min)
    }
}

/// Per-release Rényi divergence of the sampled Gaussian mechanism at
/// integer order `alpha`, via the exact binomial expansion (log-sum-exp for
/// stability; `ln C(α,k)` from an exact running log-factorial).
fn subsampled_gaussian_rdp(q: f64, z: f64, alpha: u64) -> f64 {
    debug_assert!(alpha >= 2 && q > 0.0 && q < 1.0 && z > 0.0);
    // ln(k!) for k = 0..=alpha, built incrementally.
    let mut log_factorial = Vec::with_capacity(alpha as usize + 1);
    log_factorial.push(0.0f64);
    for k in 1..=alpha {
        log_factorial.push(log_factorial[k as usize - 1] + (k as f64).ln());
    }
    let log_binomial = |k: u64| {
        log_factorial[alpha as usize]
            - log_factorial[k as usize]
            - log_factorial[(alpha - k) as usize]
    };
    let mut log_terms = Vec::with_capacity(alpha as usize + 1);
    for k in 0..=alpha {
        let mut term = log_binomial(k) + (alpha - k) as f64 * (1.0 - q).ln();
        if k > 0 {
            term += k as f64 * q.ln();
        }
        term += (k * k - k) as f64 / (2.0 * z * z);
        log_terms.push(term);
    }
    let max = log_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = log_terms.iter().map(|t| (t - max).exp()).sum();
    (max + sum.ln()) / (alpha as f64 - 1.0)
}

/// One DP release, as recorded in the telemetry trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DpRelease {
    /// Virtual time of the release, in seconds.
    pub time_s: f64,
    /// Fraction of the released buffer's accepted updates that were clipped
    /// (their L2 norm exceeded the bound).
    pub clip_fraction: f64,
    /// Standard deviation of the Gaussian noise added to this release's
    /// weighted-average delta: `clip_bound * z * max_weight / weight_total`
    /// (`0` for a noiseless or all-zero-weight buffer).
    pub noise_std: f64,
    /// Cumulative `epsilon(target_delta)` after this release.
    pub cumulative_epsilon: f64,
}

/// Cumulative counters and traces of the DP pipeline, exported through
/// [`Aggregator::stack_telemetry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DpTelemetry {
    /// Updates accepted into a buffer (post-clipping).
    pub accepted_updates: u64,
    /// Accepted updates whose delta was actually clipped (L2 norm above the
    /// bound).
    pub clipped_updates: u64,
    /// Releases fed into the accountant — always equals the wrapped task's
    /// server updates.
    pub releases: u64,
    /// Cumulative `epsilon(target_delta)` after the last release (`0`
    /// before any release; `∞` for a noiseless mechanism).
    pub cumulative_epsilon: f64,
    /// Append-only per-release trace: clip fraction, noise std, and the
    /// cumulative ε trajectory.
    pub release_trace: Vec<DpRelease>,
}

impl DpTelemetry {
    /// Lifetime fraction of accepted updates that were clipped.
    pub fn clip_fraction(&self) -> f64 {
        if self.accepted_updates == 0 {
            0.0
        } else {
            self.clipped_updates as f64 / self.accepted_updates as f64
        }
    }
}

/// The noise stream's domain, separating it from the TSA/secure-client
/// streams derived from the same task seed (shared
/// [`crate::secure::derive_seed`] scheme).
const NOISE_SEED_DOMAIN: &[u8] = b"papaya/dp-noise/";

/// An aggregation strategy wrapped in per-update clipping, release noise,
/// and privacy accounting.  See the module docs for the mechanism and the
/// stacking order with [`SecureAggregator`](crate::secure::SecureAggregator).
pub struct DpAggregator {
    inner: Box<dyn Aggregator>,
    config: DpConfig,
    accountant: PrivacyAccountant,
    rng: ChaCha20Rng,
    /// Pending second normal of the Box–Muller pair, if any.
    spare_normal: Option<f64>,
    /// Weight total of the buffer in progress (public metadata; the divisor
    /// of the release the noise std is scaled by).
    weight_sum: f64,
    /// Largest single weight folded into the buffer in progress (public
    /// metadata; the release's per-user L2 sensitivity is
    /// `max_weight * clip_bound / weight_sum`).
    buffer_max_weight: f64,
    /// Accepted updates in the buffer in progress.
    buffer_accepted: u64,
    /// Clipped updates in the buffer in progress.
    buffer_clipped: u64,
    telemetry: DpTelemetry,
}

impl DpAggregator {
    /// Wraps `inner` in the DP pipeline; `seed` makes the noise stream
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see [`DpConfig::validate`]).
    pub fn new(inner: Box<dyn Aggregator>, config: DpConfig, seed: u64) -> Self {
        config.validate();
        DpAggregator {
            inner,
            accountant: PrivacyAccountant::for_config(&config),
            config,
            rng: ChaCha20Rng::from_seed(crate::secure::derive_seed(NOISE_SEED_DOMAIN, seed)),
            spare_normal: None,
            weight_sum: 0.0,
            buffer_max_weight: 0.0,
            buffer_accepted: 0,
            buffer_clipped: 0,
            telemetry: DpTelemetry::default(),
        }
    }

    /// The DP configuration.
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// The privacy accountant (releases recorded, ε queries).
    pub fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    /// The cumulative DP telemetry.
    pub fn telemetry(&self) -> &DpTelemetry {
        &self.telemetry
    }

    /// One standard normal via the shared Box–Muller transform, consuming
    /// uniforms from the seeded noise stream two at a time (the spare is
    /// kept for the next call, so a release of any dimensionality advances
    /// the stream deterministically).
    fn standard_normal(&mut self) -> f64 {
        if let Some(spare) = self.spare_normal.take() {
            return spare;
        }
        // u1 in (0, 1] so ln(u1) is finite; u2 in [0, 1).
        let u1 = ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let (normal, spare) = papaya_data::stats::standard_normal_pair(u1, u2);
        self.spare_normal = Some(spare);
        normal
    }
}

impl Aggregator for DpAggregator {
    /// L2-clips the update's delta to the configured bound (a pure
    /// client-side transformation — under a secure inner layer the clipped
    /// delta is what gets masked), then lets the wrapped strategy decide.
    fn accumulate(
        &mut self,
        mut update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        let norm = update.delta.norm() as f64;
        let clipped = norm > self.config.clip_bound;
        if clipped {
            update.delta.scale((self.config.clip_bound / norm) as f32);
        }
        let staleness = update.staleness(current_version);
        let weight = self.inner.update_weight(update.num_examples, staleness);
        let outcome = self.inner.accumulate(update, current_version, now_s);
        if outcome.accepted() {
            self.weight_sum += weight;
            self.buffer_max_weight = self.buffer_max_weight.max(weight);
            self.buffer_accepted += 1;
            self.telemetry.accepted_updates += 1;
            if clipped {
                self.buffer_clipped += 1;
                self.telemetry.clipped_updates += 1;
            }
        }
        outcome
    }

    fn is_ready(&self, now_s: f64) -> bool {
        self.inner.is_ready(now_s)
    }

    /// Releases the wrapped strategy's weighted average with Gaussian noise
    /// of std `clip_bound * noise_multiplier * max_weight / weight_total`
    /// added element-wise (noise proportional to the release's per-user L2
    /// sensitivity — `max_weight` is the largest weight in the buffer, so
    /// the heaviest client is the one the calibration protects), records
    /// the release with the accountant, and appends the telemetry sample.
    /// With `noise_multiplier == 0` (or an all-zero-weight buffer, whose
    /// release is a data-independent zero delta) the noise step is skipped
    /// entirely, so the release is bit-exact against the clear strategy.
    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        let mut released = self.inner.take(now_s)?;
        let weight_sum = std::mem::replace(&mut self.weight_sum, 0.0);
        let max_weight = std::mem::replace(&mut self.buffer_max_weight, 0.0);
        let accepted = std::mem::replace(&mut self.buffer_accepted, 0);
        let clipped = std::mem::replace(&mut self.buffer_clipped, 0);
        let noise_std = if self.config.noise_multiplier > 0.0 && weight_sum > 0.0 {
            self.config.clip_bound * self.config.noise_multiplier * max_weight / weight_sum
        } else {
            0.0
        };
        if noise_std > 0.0 {
            for value in released.as_mut_slice() {
                *value += (noise_std * self.standard_normal()) as f32;
            }
        }
        self.accountant.record_release();
        let cumulative_epsilon = self.accountant.epsilon(self.config.target_delta);
        self.telemetry.releases = self.accountant.releases();
        self.telemetry.cumulative_epsilon = cumulative_epsilon;
        self.telemetry.release_trace.push(DpRelease {
            time_s: now_s,
            clip_fraction: if accepted == 0 {
                0.0
            } else {
                clipped as f64 / accepted as f64
            },
            noise_std,
            cumulative_epsilon,
        });
        Some(released)
    }

    /// Drops the buffer (the process holding it died) and the per-buffer
    /// clip/weight bookkeeping with it; lifetime telemetry and the
    /// accountant survive — a dropped buffer was never released, so it
    /// costs no privacy.
    fn reset(&mut self) -> usize {
        self.weight_sum = 0.0;
        self.buffer_max_weight = 0.0;
        self.buffer_accepted = 0;
        self.buffer_clipped = 0;
        self.inner.reset()
    }

    fn goal(&self) -> usize {
        self.inner.goal()
    }

    fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    fn stats(&self) -> &AggregatorStats {
        self.inner.stats()
    }

    fn max_staleness(&self) -> Option<u64> {
        self.inner.max_staleness()
    }

    fn next_deadline_s(&self) -> Option<f64> {
        self.inner.next_deadline_s()
    }

    fn closes_round_on_release(&self) -> bool {
        self.inner.closes_round_on_release()
    }

    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        self.inner.update_weight(num_examples, staleness)
    }

    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry {
            dp: Some(&self.telemetry),
            ..self.inner.stack_telemetry()
        }
    }

    // DP is the outer layer of the dp+secure stack, so the speculative
    // mask-precompute hooks pass straight through to the secure layer.
    fn plan_mask_precompute(&mut self, client_id: usize) -> Option<crate::secure::MaskPlan> {
        self.inner.plan_mask_precompute(client_id)
    }

    fn provide_precomputed_mask(&mut self, client_id: usize, mask: crate::secure::PrecomputedMask) {
        self.inner.provide_precomputed_mask(client_id, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedbuff::FedBuffAggregator;
    use crate::secure::SecureAggregator;
    use crate::staleness::StalenessWeighting;

    fn update(id: usize, delta: Vec<f32>, examples: usize, start_version: u64) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(delta),
            num_examples: examples,
            start_version,
            train_loss: 0.0,
        }
    }

    fn dp_fedbuff(goal: usize, config: DpConfig) -> DpAggregator {
        DpAggregator::new(
            Box::new(FedBuffAggregator::new(
                goal,
                StalenessWeighting::Constant,
                Some(5),
            )),
            config,
            0xD1FF,
        )
    }

    #[test]
    fn out_of_bound_updates_are_clipped_to_the_sphere() {
        let mut agg = dp_fedbuff(1, DpConfig::new(1.0, 0.0));
        // Norm 5 clipped to 1: the release is the clipped delta.
        agg.accumulate(update(0, vec![3.0, 4.0], 10, 0), 0, 0.0);
        let out = agg.take(0.0).unwrap();
        assert!((out.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((out.as_slice()[1] - 0.8).abs() < 1e-6);
        assert_eq!(agg.telemetry().clipped_updates, 1);
        assert_eq!(agg.telemetry().release_trace[0].clip_fraction, 1.0);
    }

    #[test]
    fn in_bound_updates_pass_through_bit_exact() {
        let mut clear = FedBuffAggregator::new(2, StalenessWeighting::Constant, Some(5));
        let mut dp = dp_fedbuff(2, DpConfig::new(10.0, 0.0));
        for (id, delta) in [(0usize, vec![0.25, -1.5]), (1, vec![1.125, 0.5])] {
            clear.accumulate(update(id, delta.clone(), 10, 0), 0, 0.0);
            dp.accumulate(update(id, delta, 10, 0), 0, 0.0);
        }
        assert_eq!(
            clear.take(0.0).unwrap().as_slice(),
            dp.take(0.0).unwrap().as_slice(),
            "zero-noise DP must be bit-exact"
        );
        assert_eq!(dp.telemetry().clipped_updates, 0);
        assert_eq!(dp.telemetry().releases, 1);
        assert_eq!(dp.telemetry().cumulative_epsilon, f64::INFINITY);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_differs_across_seeds() {
        let run = |seed: u64| {
            let mut agg = DpAggregator::new(
                Box::new(FedBuffAggregator::new(
                    2,
                    StalenessWeighting::Constant,
                    None,
                )),
                DpConfig::new(1.0, 1.0),
                seed,
            );
            agg.accumulate(update(0, vec![0.3, 0.7], 10, 0), 0, 0.0);
            agg.accumulate(update(1, vec![-0.1, 0.2], 10, 0), 0, 1.0);
            agg.take(1.0).unwrap()
        };
        assert_eq!(run(7).as_slice(), run(7).as_slice());
        assert_ne!(run(7).as_slice(), run(8).as_slice());
    }

    #[test]
    fn noise_std_is_calibrated_to_the_per_user_sensitivity() {
        // The release is sum(w·Δ)/W, so one user moves it by at most
        // max_weight·C/W; the noise std must carry the max_weight factor
        // (an ε claimed for weight-1 users would silently under-protect
        // the heaviest client under example weighting).
        let mut agg = DpAggregator::new(
            Box::new(FedBuffAggregator::new(
                2,
                StalenessWeighting::Constant,
                None,
            )),
            DpConfig::new(2.0, 3.0),
            1,
        );
        // Uniform weights 10 + 10: std = 2·3·10/20 = 3.0 (equivalently the
        // textbook C·z/K for unit weights).
        agg.accumulate(update(0, vec![0.1], 10, 0), 0, 0.0);
        agg.accumulate(update(1, vec![0.2], 10, 0), 0, 0.0);
        agg.take(0.0).unwrap();
        assert!((agg.telemetry().release_trace[0].noise_std - 3.0).abs() < 1e-12);
        // Skewed weights 10 + 30: the heavy client dominates the release
        // (sensitivity 30·C/40), so std = 2·3·30/40 = 4.5.
        agg.accumulate(update(2, vec![0.1], 10, 0), 0, 1.0);
        agg.accumulate(update(3, vec![0.2], 30, 0), 0, 1.0);
        agg.take(1.0).unwrap();
        assert!((agg.telemetry().release_trace[1].noise_std - 4.5).abs() < 1e-12);
    }

    #[test]
    fn all_zero_weight_release_stays_an_exact_zero_delta() {
        // A data-independent release needs no noise; the conformance
        // contract (zero-weight buffers release exact zeros) survives DP.
        let mut agg = dp_fedbuff(2, DpConfig::new(1.0, 5.0));
        agg.accumulate(update(0, vec![3.0, -1.0], 0, 0), 0, 0.0);
        agg.accumulate(update(1, vec![5.0, 2.0], 0, 0), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[0.0, 0.0]);
        assert_eq!(agg.telemetry().release_trace[0].noise_std, 0.0);
        assert_eq!(agg.telemetry().releases, 1);
    }

    #[test]
    fn reset_drops_buffer_bookkeeping_but_keeps_lifetime_state() {
        let mut agg = dp_fedbuff(2, DpConfig::new(0.5, 1.0));
        agg.accumulate(update(0, vec![3.0, 4.0], 10, 0), 0, 0.0);
        assert_eq!(agg.reset(), 1);
        assert_eq!(agg.telemetry().clipped_updates, 1, "lifetime counter");
        assert_eq!(
            agg.telemetry().releases,
            0,
            "a dropped buffer never cost privacy"
        );
        // The next buffer starts clean: one fresh unclipped update, clip
        // fraction 0 on release.
        agg.accumulate(update(1, vec![0.1, 0.1], 10, 0), 0, 1.0);
        agg.accumulate(update(2, vec![0.1, 0.1], 10, 0), 0, 1.0);
        agg.take(1.0).unwrap();
        assert_eq!(agg.telemetry().release_trace[0].clip_fraction, 0.0);
        assert_eq!(agg.accountant().releases(), 1);
    }

    #[test]
    fn budget_exhaustion_trips_after_enough_releases() {
        let config = DpConfig::new(1.0, 1.0)
            .with_target_delta(1e-5)
            .with_epsilon_budget(6.0);
        let mut agg = DpAggregator::new(
            Box::new(FedBuffAggregator::new(
                1,
                StalenessWeighting::Constant,
                None,
            )),
            config,
            3,
        );
        // The decorator only reports ε; comparing it against the budget is
        // the driver's job (`TaskRuntime::privacy_budget_exhausted`).
        let budget = config.epsilon_budget.expect("set above");
        let mut releases = 0;
        while agg.telemetry().cumulative_epsilon < budget {
            agg.accumulate(update(releases, vec![0.1], 10, 0), 0, 0.0);
            agg.take(0.0).unwrap();
            releases += 1;
            assert!(releases < 100, "budget never tripped");
        }
        // ε(1e-5, z=1, T) reaches 6.0 within a handful of releases (T=1
        // gives ~5.3, T=2 ~7.8) but not on the first.
        assert_eq!(releases, 2);
        assert!(agg.telemetry().cumulative_epsilon >= 6.0);
    }

    #[test]
    fn dp_stacks_over_the_secure_pipeline() {
        // dp(secure(fedbuff)): the masked deltas are the clipped ones and
        // the noise lands on the decoded release.  With zero noise the
        // result matches dp(fedbuff) to fixed-point tolerance.
        let dp_cfg = DpConfig::new(1.0, 0.0);
        let mut dp_clear = dp_fedbuff(2, dp_cfg);
        let mut dp_secure = DpAggregator::new(
            Box::new(SecureAggregator::new(
                Box::new(FedBuffAggregator::new(
                    2,
                    StalenessWeighting::Constant,
                    Some(5),
                )),
                2,
                2,
                0xC0DE,
            )),
            dp_cfg,
            0xD1FF,
        );
        let updates = [
            update(0, vec![3.0, 4.0], 10, 0), // clipped to norm 1
            update(1, vec![0.1, -0.2], 30, 0),
        ];
        for u in &updates {
            assert!(dp_clear.accumulate(u.clone(), 0, 0.0).accepted());
            assert!(dp_secure.accumulate(u.clone(), 0, 0.0).accepted());
        }
        let clear_out = dp_clear.take(0.0).unwrap();
        let secure_out = dp_secure.take(0.0).unwrap();
        for (c, s) in clear_out.as_slice().iter().zip(secure_out.as_slice()) {
            assert!((c - s).abs() < 1e-4, "clear {c} vs secure {s}");
        }
        // Both telemetries are visible through the stacked decorator.
        let stack = dp_secure.stack_telemetry();
        assert!(stack.dp.is_some());
        let secure_telemetry = stack.secure.expect("pass-through");
        assert_eq!(secure_telemetry.masked_updates, 2);
        assert_eq!(secure_telemetry.tsa_key_releases, 1);
        assert_eq!(
            secure_telemetry.out_of_range_releases, 0,
            "masking the clipped delta must keep decode and reference aligned"
        );
        assert_eq!(dp_secure.telemetry().clipped_updates, 1);
    }

    #[test]
    fn accountant_epsilon_is_zero_before_any_release() {
        let accountant = PrivacyAccountant::new(0.1, 1.0);
        assert_eq!(accountant.epsilon(1e-5), 0.0);
    }

    #[test]
    fn accountant_noiseless_mechanism_has_infinite_epsilon() {
        let mut accountant = PrivacyAccountant::new(1.0, 0.0);
        accountant.record_release();
        assert_eq!(accountant.epsilon(1e-5), f64::INFINITY);
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        let mut full = PrivacyAccountant::new(1.0, 1.0);
        let mut sampled = PrivacyAccountant::new(0.01, 1.0);
        for _ in 0..100 {
            full.record_release();
            sampled.record_release();
        }
        let (e_full, e_sampled) = (full.epsilon(1e-5), sampled.epsilon(1e-5));
        assert!(
            e_sampled < e_full / 5.0,
            "q=0.01 must be far tighter than q=1: {e_sampled} vs {e_full}"
        );
    }

    #[test]
    #[should_panic(expected = "clip bound must be positive")]
    fn invalid_clip_bound_rejected() {
        DpConfig::new(0.0, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "requires noise")]
    fn budget_without_noise_rejected() {
        DpConfig::new(1.0, 0.0).with_epsilon_budget(1.0).validate();
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn invalid_sampling_rate_rejected() {
        DpConfig::new(1.0, 1.0).with_sampling_rate(1.5).validate();
    }
}
