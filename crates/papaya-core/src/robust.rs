//! The [`RobustAggregator`] decorator: Byzantine-robust aggregation for any
//! strategy.
//!
//! The defense half of the Byzantine threat model (the attack half is
//! [`crate::adversary`]), in the same decorator shape as
//! [`SecureAggregator`](crate::secure::SecureAggregator) and
//! [`DpAggregator`](crate::dp::DpAggregator).  It stacks **outermost** —
//! `robust(dp(secure(strategy)))` — so defenses inspect exactly what the
//! device uploaded, before DP clipping can shrink an attack back into
//! bounds and hide it:
//!
//! * on [`accumulate`](Aggregator::accumulate), updates carrying NaN or
//!   infinite values are rejected with a typed outcome before they can
//!   poison any downstream statistic, and the
//!   [`NormFilter`](RobustDefense::NormFilter) defense rejects updates
//!   whose L2 norm exceeds its bound;
//! * on [`take`](Aggregator::take), the estimator defenses
//!   ([`TrimmedMean`](RobustDefense::TrimmedMean) and
//!   [`CoordinateMedian`](RobustDefense::CoordinateMedian)) replace the
//!   wrapped release with a coordinate-wise robust statistic computed over
//!   the buffer's clear updates — which is also what neutralizes SecAgg
//!   protocol deviations: a garbage-masked secure release is simply
//!   discarded in favor of the robust estimate.
//!
//! # Neutral settings are bit-exact
//!
//! Every defense has a *neutral* setting under which the decorator is a
//! pure pass-through: a norm filter at `∞` and a trimmed mean with
//! `trim_fraction == 0` forward every finite update and release untouched,
//! so a no-attack run with a neutral defense is **bit-identical** to the
//! clear run — the robustness analogue of the zero-noise DP equivalence.
//! The telemetry stays at its defaults in such runs, the values a clear
//! run reports, so the two runs' fingerprints are equal although every
//! robustness field is hashed.
//!
//! # Composition caveat (documented, deliberate)
//!
//! An *engaged* estimator defense recomputes the release from buffered
//! clear updates, bypassing the inner layers' release path: under SecAgg it
//! models the paper's TEE running the robust estimator inside the enclave
//! (the simulator, standing in for the TEE, legitimately holds the clear
//! updates), and under DP it replaces the noised release, trading the
//! privacy guarantee for robustness.  `docs/THREAT_MODEL.md` spells out
//! this trade; the norm filter composes with both without caveats.

use crate::aggregator::{AccumulateOutcome, Aggregator, StackTelemetry};
use crate::client::ClientUpdate;
use crate::trace::{DecimatedTrace, Digest, TraceSample};
use papaya_nn::params::ParamVec;

/// A Byzantine-robust aggregation rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RobustDefense {
    /// Rejects any update whose L2 norm exceeds `max_norm` before it
    /// reaches the wrapped strategy.  `f64::INFINITY` is the neutral
    /// setting (nothing finite is ever rejected).
    NormFilter {
        /// The L2 bound; must be positive (infinity allowed).
        max_norm: f64,
    },
    /// Releases the coordinate-wise trimmed mean of the buffer's clear
    /// updates: per coordinate, the `⌊trim_fraction · n⌋` smallest and
    /// largest values are dropped and the rest are weight-averaged.
    /// `trim_fraction == 0` is the neutral setting — a documented pure
    /// pass-through of the wrapped release, *not* an estimator over the
    /// full buffer (the weighted mean of everything is what the inner
    /// strategy already released, bit-exactly).
    TrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        trim_fraction: f64,
    },
    /// Releases the coordinate-wise weighted median of the buffer's clear
    /// updates — the strongest estimator here (breakdown point 1/2), with
    /// no neutral setting: configuring it always engages the estimator.
    CoordinateMedian,
}

/// Robust-aggregation configuration of one task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustConfig {
    /// The defense applied to this task's updates and releases.
    pub defense: RobustDefense,
}

impl RobustConfig {
    /// A robust configuration with the given defense.
    pub fn new(defense: RobustDefense) -> Self {
        RobustConfig { defense }
    }

    /// The neutral configuration: a norm filter at infinity.  Wrapping a
    /// task in it changes nothing but the availability of robustness
    /// telemetry (which stays all-zero without an attack).
    pub fn neutral() -> Self {
        RobustConfig {
            defense: RobustDefense::NormFilter {
                max_norm: f64::INFINITY,
            },
        }
    }

    /// Panics unless every knob is in its valid range; called by
    /// scenario-side config validation and by [`RobustAggregator::new`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or NaN norm bound, or a trim fraction
    /// outside `[0, 0.5)`.
    pub fn validate(&self) {
        // Exhaustive destructure: a new robustness knob must be
        // range-checked here (or explicitly ignored) before it compiles.
        let RobustConfig { defense } = *self;
        match defense {
            RobustDefense::NormFilter { max_norm } => assert!(
                max_norm > 0.0 && !max_norm.is_nan(),
                "robust: norm bound must be positive (infinity = neutral), got {max_norm}"
            ),
            RobustDefense::TrimmedMean { trim_fraction } => assert!(
                (0.0..0.5).contains(&trim_fraction),
                "robust: trim fraction must be in [0, 0.5), got {trim_fraction}"
            ),
            RobustDefense::CoordinateMedian => {}
        }
    }
}

/// One estimator release, as recorded in the telemetry trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustRelease {
    /// Virtual time of the release, in seconds.
    pub(crate) time_s: f64,
    /// Number of clear updates the estimator was computed over.
    pub(crate) estimated_over: u64,
    /// Largest absolute per-coordinate difference between the wrapped
    /// release and the robust estimate that replaced it — a measure of how
    /// much the defense actually corrected.
    pub(crate) estimator_shift: f64,
}

impl TraceSample for RobustRelease {
    fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.time_s.to_bits());
        digest.word(self.estimated_over);
        digest.word(self.estimator_shift.to_bits());
    }
}

/// Cumulative counters and traces of the robust-aggregation pipeline,
/// exported through [`Aggregator::stack_telemetry`].
///
/// Every field stays at its default in a no-attack run with a neutral
/// defense: the counters only move on rejections and engaged-estimator
/// releases, never on ordinary accepted updates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RobustTelemetry {
    /// Updates rejected for carrying NaN or infinite values.
    pub rejected_non_finite: u64,
    /// Updates rejected by the L2 norm filter.
    pub rejected_by_norm: u64,
    /// Releases replaced by an engaged estimator (trimmed mean or median).
    pub estimator_releases: u64,
    /// Append-only per-release trace of engaged-estimator corrections.
    pub estimator_trace: DecimatedTrace<RobustRelease>,
}

impl RobustTelemetry {
    /// Total updates rejected by any defense.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_non_finite + self.rejected_by_norm
    }
}

/// An aggregation strategy wrapped in Byzantine-robust filtering and
/// estimation.  See the module docs for the mechanism and the stacking
/// order with the secure and DP decorators.
pub struct RobustAggregator {
    inner: Box<dyn Aggregator>,
    config: RobustConfig,
    /// Clear `(weight, delta)` copies of the buffer in progress, kept only
    /// while an estimator defense is engaged (empty otherwise).
    buffer: Vec<(f64, ParamVec)>,
    telemetry: RobustTelemetry,
}

impl RobustAggregator {
    /// Wraps `inner` in the robust pipeline.  Fully deterministic — no
    /// seed, no RNG: every defense is a pure function of the updates.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`RobustConfig::validate`]).
    pub fn new(inner: Box<dyn Aggregator>, config: RobustConfig) -> Self {
        config.validate();
        RobustAggregator {
            inner,
            config,
            buffer: Vec::new(),
            telemetry: RobustTelemetry::default(),
        }
    }

    /// Whether releases are replaced by a robust estimator (as opposed to
    /// filter-only defenses, which pass the wrapped release through).
    fn estimator_engaged(&self) -> bool {
        match self.config.defense {
            RobustDefense::NormFilter { .. } => false,
            RobustDefense::TrimmedMean { trim_fraction } => trim_fraction > 0.0,
            RobustDefense::CoordinateMedian => true,
        }
    }
}

impl Aggregator for RobustAggregator {
    /// Applies the accumulate-time defenses (non-finite rejection, norm
    /// filtering), then lets the wrapped stack decide; accepted updates
    /// are additionally copied into the clear buffer while an estimator
    /// defense is engaged.
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        if update.delta.as_slice().iter().any(|v| !v.is_finite()) {
            self.telemetry.rejected_non_finite += 1;
            return AccumulateOutcome::RejectedByDefense;
        }
        if let RobustDefense::NormFilter { max_norm } = self.config.defense {
            if (update.delta.norm() as f64) > max_norm {
                self.telemetry.rejected_by_norm += 1;
                return AccumulateOutcome::RejectedByDefense;
            }
        }
        let engaged = self.estimator_engaged();
        let copy = if engaged {
            let staleness = update.staleness(current_version);
            let weight = self.inner.update_weight(update.num_examples, staleness);
            Some((weight, update.delta.clone()))
        } else {
            None
        };
        let outcome = self.inner.accumulate(update, current_version, now_s);
        if outcome.accepted() {
            if let Some(copy) = copy {
                self.buffer.push(copy);
            }
        }
        outcome
    }

    fn is_ready(&self, now_s: f64) -> bool {
        self.inner.is_ready(now_s)
    }

    /// Releases the wrapped stack's aggregate; with an engaged estimator
    /// the release is *replaced* by the coordinate-wise robust statistic
    /// over the buffered clear updates, and the correction is recorded in
    /// the telemetry trace.
    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        let released = self.inner.take(now_s)?;
        if !self.estimator_engaged() {
            return Some(released);
        }
        let buffered = std::mem::take(&mut self.buffer);
        if buffered.is_empty() {
            // A forced release of an empty buffer (deadline strategies):
            // nothing to estimate over.
            return Some(released);
        }
        let estimate = match self.config.defense {
            RobustDefense::TrimmedMean { trim_fraction } => {
                coordinate_trimmed_mean(&buffered, trim_fraction)
            }
            RobustDefense::CoordinateMedian => coordinate_weighted_median(&buffered),
            // estimator_engaged() returned true, so the defense is an estimator
            RobustDefense::NormFilter { .. } => unreachable!("filter defenses never engage"),
        };
        let shift = released
            .as_slice()
            .iter()
            .zip(estimate.as_slice())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0f64, f64::max);
        self.telemetry.estimator_releases += 1;
        self.telemetry.estimator_trace.push(RobustRelease {
            time_s: now_s,
            estimated_over: buffered.len() as u64,
            estimator_shift: shift,
        });
        Some(estimate)
    }

    /// Drops the buffer (the process holding it died) and the clear copies
    /// with it; lifetime telemetry survives.
    fn reset(&mut self) -> usize {
        self.buffer.clear();
        self.inner.reset()
    }

    fn goal(&self) -> usize {
        self.inner.goal()
    }

    fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    fn next_deadline_s(&self) -> Option<f64> {
        self.inner.next_deadline_s()
    }

    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        self.inner.update_weight(num_examples, staleness)
    }

    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry {
            robust: Some(&self.telemetry),
            ..self.inner.stack_telemetry()
        }
    }

    // Robust is the outermost layer of the stack, so mask planning
    // passes straight through to the secure layer.
    fn plan_mask_precompute(&mut self, client_id: usize) {
        self.inner.plan_mask_precompute(client_id)
    }
}

/// Coordinate-wise trimmed mean: per coordinate, sort the buffered values,
/// drop `⌊trim_fraction · n⌋` from each tail, and weight-average the rest
/// (an exact zero when the surviving weight is zero, matching the
/// zero-weight contract of [`crate::aggregator::WeightedBuffer`]).
fn coordinate_trimmed_mean(buffered: &[(f64, ParamVec)], trim_fraction: f64) -> ParamVec {
    let n = buffered.len();
    let k = (trim_fraction * n as f64).floor() as usize;
    let dimension = buffered[0].1.len();
    let mut out = Vec::with_capacity(dimension);
    let mut column: Vec<(f32, f64)> = Vec::with_capacity(n);
    for i in 0..dimension {
        column.clear();
        column.extend(buffered.iter().map(|(w, delta)| (delta.as_slice()[i], *w)));
        // total_cmp gives a total order; values are finite (non-finite
        // updates never reach the buffer), so ties resolve bitwise and the
        // sort is deterministic regardless of arrival interleaving.
        column.sort_by(|a, b| a.0.total_cmp(&b.0));
        let survivors = &column[k..n - k];
        let weight_sum: f64 = survivors.iter().map(|(_, w)| w).sum();
        out.push(if weight_sum > 0.0 {
            (survivors.iter().map(|(v, w)| *v as f64 * w).sum::<f64>() / weight_sum) as f32
        } else {
            0.0
        });
    }
    ParamVec::from_vec(out)
}

/// Coordinate-wise weighted (lower) median: per coordinate, the smallest
/// value whose cumulative weight reaches half the total.  Falls back to
/// the unweighted lower median when every weight is zero, preserving the
/// estimator's breakdown point even for zero-weight buffers.
fn coordinate_weighted_median(buffered: &[(f64, ParamVec)]) -> ParamVec {
    let n = buffered.len();
    let dimension = buffered[0].1.len();
    let mut out = Vec::with_capacity(dimension);
    let mut column: Vec<(f32, f64)> = Vec::with_capacity(n);
    for i in 0..dimension {
        column.clear();
        column.extend(buffered.iter().map(|(w, delta)| (delta.as_slice()[i], *w)));
        column.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = column.iter().map(|(_, w)| w).sum();
        let value = if total > 0.0 {
            let half = total / 2.0;
            let mut cumulative = 0.0;
            let mut picked = column[n - 1].0;
            for &(v, w) in &column {
                cumulative += w;
                if cumulative >= half {
                    picked = v;
                    break;
                }
            }
            picked
        } else {
            column[(n - 1) / 2].0
        };
        out.push(value);
    }
    ParamVec::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedbuff::FedBuffAggregator;
    use crate::staleness::StalenessWeighting;

    impl RobustAggregator {
        /// The cumulative robustness telemetry.
        fn telemetry(&self) -> &RobustTelemetry {
            &self.telemetry
        }
    }

    fn update(id: usize, delta: Vec<f32>, examples: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(delta),
            num_examples: examples,
            start_version: 0,
            train_loss: 0.0,
        }
    }

    fn robust_fedbuff(goal: usize, defense: RobustDefense) -> RobustAggregator {
        RobustAggregator::new(
            Box::new(FedBuffAggregator::new(goal, StalenessWeighting::Constant)),
            RobustConfig::new(defense),
        )
    }

    #[test]
    fn neutral_defense_is_bit_exact_against_clear() {
        let mut clear = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        let mut robust = robust_fedbuff(2, RobustConfig::neutral().defense);
        for (id, delta) in [(0usize, vec![0.25, -1.5]), (1, vec![1.125, 0.5])] {
            clear.accumulate(update(id, delta.clone(), 10), 0, 0.0);
            robust.accumulate(update(id, delta, 10), 0, 0.0);
        }
        assert_eq!(
            clear.take(0.0).unwrap().as_slice(),
            robust.take(0.0).unwrap().as_slice(),
            "neutral robust must be bit-exact"
        );
        assert_eq!(robust.telemetry(), &RobustTelemetry::default());
    }

    #[test]
    fn zero_trim_is_a_documented_pass_through() {
        let mut clear = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        let mut robust = robust_fedbuff(2, RobustDefense::TrimmedMean { trim_fraction: 0.0 });
        for (id, delta) in [(0usize, vec![3.0, 4.0]), (1, vec![-1.0, 2.0])] {
            clear.accumulate(update(id, delta.clone(), 10), 0, 0.0);
            robust.accumulate(update(id, delta, 10), 0, 0.0);
        }
        assert_eq!(
            clear.take(0.0).unwrap().as_slice(),
            robust.take(0.0).unwrap().as_slice()
        );
        assert_eq!(robust.telemetry().estimator_releases, 0);
    }

    #[test]
    fn non_finite_updates_are_rejected_with_a_typed_outcome() {
        let mut robust = robust_fedbuff(2, RobustConfig::neutral().defense);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let outcome = robust.accumulate(update(0, vec![1.0, bad], 10), 0, 0.0);
            assert_eq!(outcome, AccumulateOutcome::RejectedByDefense);
            assert!(!outcome.accepted());
        }
        assert_eq!(robust.telemetry().rejected_non_finite, 3);
        assert_eq!(robust.buffered(), 0, "poison never reached the buffer");
    }

    #[test]
    fn non_finite_updates_cannot_poison_an_estimator() {
        let mut robust = robust_fedbuff(2, RobustDefense::CoordinateMedian);
        robust.accumulate(update(0, vec![f32::NAN], 10), 0, 0.0);
        robust.accumulate(update(1, vec![1.0], 10), 0, 0.0);
        robust.accumulate(update(2, vec![3.0], 10), 0, 0.0);
        let out = robust.take(0.0).unwrap();
        assert!(out.as_slice()[0].is_finite());
        assert_eq!(robust.telemetry().rejected_non_finite, 1);
    }

    #[test]
    fn norm_filter_rejects_oversized_updates() {
        let mut robust = robust_fedbuff(2, RobustDefense::NormFilter { max_norm: 1.0 });
        let outcome = robust.accumulate(update(0, vec![30.0, 40.0], 10), 0, 0.0);
        assert_eq!(outcome, AccumulateOutcome::RejectedByDefense);
        robust.accumulate(update(1, vec![0.6, 0.8], 10), 0, 0.0);
        robust.accumulate(update(2, vec![0.0, 0.5], 10), 0, 0.0);
        let out = robust.take(0.0).unwrap();
        assert!((out.as_slice()[0] - 0.3).abs() < 1e-6);
        assert_eq!(robust.telemetry().rejected_by_norm, 1);
    }

    #[test]
    fn trimmed_mean_discards_the_tails() {
        // Five clients, one of them boosting 100x: with 20 % trim the
        // outlier lands in the dropped tail of every coordinate.
        let mut robust = robust_fedbuff(5, RobustDefense::TrimmedMean { trim_fraction: 0.2 });
        for (id, v) in [(0usize, 1.0f32), (1, 1.1), (2, 0.9), (3, 1.05)] {
            assert!(robust
                .accumulate(update(id, vec![v], 10), 0, 0.0)
                .accepted());
        }
        robust.accumulate(update(4, vec![100.0], 10), 0, 0.0);
        let out = robust.take(0.0).unwrap();
        assert!(
            (out.as_slice()[0] - 1.05).abs() < 0.051,
            "outlier survived the trim: {}",
            out.as_slice()[0]
        );
        assert_eq!(robust.telemetry().estimator_releases, 1);
        let trace = &robust.telemetry().estimator_trace;
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].estimated_over, 5);
        assert!(trace[0].estimator_shift > 1.0, "the correction was large");
    }

    #[test]
    fn median_shrugs_off_a_sign_flipping_minority() {
        let mut robust = robust_fedbuff(5, RobustDefense::CoordinateMedian);
        for (id, v) in [(0usize, 1.0f32), (1, 1.2), (2, 0.8)] {
            robust.accumulate(update(id, vec![v], 10), 0, 0.0);
        }
        // Two sign-flippers out of five: the (lower) median lands on the
        // smallest honest value instead of being dragged negative.
        robust.accumulate(update(3, vec![-50.0], 10), 0, 0.0);
        robust.accumulate(update(4, vec![-50.0], 10), 0, 0.0);
        let out = robust.take(0.0).unwrap();
        assert_eq!(out.as_slice()[0], 0.8);
    }

    #[test]
    fn weighted_median_respects_example_counts() {
        let mut robust = RobustAggregator::new(
            Box::new(FedBuffAggregator::new(3, StalenessWeighting::Constant)),
            RobustConfig::new(RobustDefense::CoordinateMedian),
        );
        // Weight 1+1 on the left of 5.0, weight 10 at 5.0: the weighted
        // median is 5.0 even though the unweighted one would be 2.0.
        robust.accumulate(update(0, vec![1.0], 1), 0, 0.0);
        robust.accumulate(update(1, vec![2.0], 1), 0, 0.0);
        robust.accumulate(update(2, vec![5.0], 10), 0, 0.0);
        assert_eq!(robust.take(0.0).unwrap().as_slice(), &[5.0]);
    }

    #[test]
    fn zero_weight_buffers_release_exact_zeros_under_trimming() {
        let mut robust = robust_fedbuff(
            2,
            RobustDefense::TrimmedMean {
                trim_fraction: 0.25,
            },
        );
        robust.accumulate(update(0, vec![3.0, -1.0], 0), 0, 0.0);
        robust.accumulate(update(1, vec![5.0, 2.0], 0), 0, 0.0);
        assert_eq!(robust.take(0.0).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_weight_buffers_keep_a_meaningful_median() {
        let mut robust = robust_fedbuff(3, RobustDefense::CoordinateMedian);
        robust.accumulate(update(0, vec![1.0], 0), 0, 0.0);
        robust.accumulate(update(1, vec![2.0], 0), 0, 0.0);
        robust.accumulate(update(2, vec![9.0], 0), 0, 0.0);
        // All weights zero: the unweighted lower median, not a panic.
        assert_eq!(robust.take(0.0).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn reset_drops_the_clear_buffer_but_keeps_lifetime_telemetry() {
        let mut robust = robust_fedbuff(3, RobustDefense::CoordinateMedian);
        robust.accumulate(update(0, vec![f32::NAN], 10), 0, 0.0);
        robust.accumulate(update(1, vec![1.0], 10), 0, 0.0);
        assert_eq!(robust.reset(), 1);
        assert_eq!(robust.telemetry().rejected_non_finite, 1);
        // The next buffer starts clean: the dead buffer's copy is gone.
        robust.accumulate(update(2, vec![2.0], 10), 0, 1.0);
        robust.accumulate(update(3, vec![4.0], 10), 0, 1.0);
        robust.accumulate(update(4, vec![6.0], 10), 0, 1.0);
        let out = robust.take(1.0).unwrap();
        assert_eq!(out.as_slice(), &[4.0], "median over the fresh buffer only");
    }

    #[test]
    #[should_panic(expected = "norm bound must be positive")]
    fn invalid_norm_bound_rejected() {
        RobustConfig::new(RobustDefense::NormFilter { max_norm: 0.0 }).validate();
    }

    #[test]
    #[should_panic(expected = "trim fraction must be in [0, 0.5)")]
    fn invalid_trim_fraction_rejected() {
        RobustConfig::new(RobustDefense::TrimmedMean { trim_fraction: 0.5 }).validate();
    }
}
