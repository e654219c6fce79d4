//! The aggregation protocol: one trait, one buffering strategy, and the
//! decorators that wrap it.
//!
//! PAPAYA's central systems claim is that a single server architecture
//! serves synchronous rounds, buffered asynchronous aggregation, and
//! anything in between through configuration alone.  This module is that
//! claim in interface form: an [`Aggregator`] folds client updates into a
//! buffer, decides when the buffer is ready, and releases a weighted-average
//! delta for the server optimizer — while the runtime driving it never
//! branches on *which* strategy is plugged in.
//!
//! One buffering strategy serves both modes, [`FedBuffAggregator`]:
//!
//! * asynchronous tasks release after `K` updates, stale updates
//!   down-weighted (Section 3.1 / Appendix E.2).  An optional round
//!   deadline also releases whatever has arrived once it expires, bounding
//!   the straggler tail the paper's sync/async comparison is about;
//! * synchronous tasks with over-selection release once the cohort goal is
//!   met (Section 7 / Appendix E.3), at constant staleness weight: within a
//!   round the server model does not move.
//!
//! [`for_task`] builds the strategy a [`TaskConfig`] asks for, and
//! [`AggregationStack::for_task`] wraps it in the decorators the config asks
//! for, so drivers hold an [`AggregationStack`] and never branch on the mode
//! or on which layers are on.
//!
//! Whether a release closes a round and which staleness bound aborts
//! in-flight clients are participation policy, fixed by the task's
//! [`TrainingMode`]; the runtime applies them after every release.  So a
//! strategy folds every update it is offered; only a robust stage refuses
//! one, by its contents.
//! No method has a default body, so a decorator that forgets to forward a
//! hook to its inner strategy does not compile.
//!
//! # Example
//!
//! ```
//! use papaya_core::aggregator::{for_task, AccumulateOutcome, Aggregator};
//! use papaya_core::client::ClientUpdate;
//! use papaya_core::TaskConfig;
//! use papaya_nn::params::ParamVec;
//!
//! let task = TaskConfig::async_task("demo", 8, 2);
//! let mut agg = for_task(&task);
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
//! assert_eq!(agg.take(1.0).unwrap().as_slice(), &[0.5, 0.5]);
//! ```

use crate::client::ClientUpdate;
use crate::config::{SecAggMode, TaskConfig, TrainingMode};
use crate::dp::DpAggregator;
use crate::fedbuff::FedBuffAggregator;
use crate::robust::RobustAggregator;
use crate::secure::{self, SecureAggregator};
use crate::staleness::StalenessWeighting;
use papaya_nn::params::ParamVec;

/// The outcome of offering one update to an aggregator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccumulateOutcome {
    /// The update was folded into the buffer.
    Accepted {
        /// Staleness of the accepted update.
        staleness: u64,
    },
    /// A robust-aggregation defense rejected the update before it could
    /// reach the wrapped strategy's buffer: it carried NaN/infinite values
    /// or its L2 norm exceeded the configured filter bound
    /// ([`RobustAggregator`]).
    RejectedByDefense,
}

impl AccumulateOutcome {
    /// Returns true if the update was accepted.
    pub fn accepted(&self) -> bool {
        matches!(self, AccumulateOutcome::Accepted { .. })
    }
}

/// The telemetry of an aggregation stack's decorators, as returned by
/// [`Aggregator::stack_telemetry`]: `None` where the stack has no such
/// layer, so the fields also say how a task is protected.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackTelemetry<'a> {
    /// Counters and the quantization-error trace of the
    /// [`SecureAggregator`].
    pub secure: Option<&'a crate::secure::SecureTelemetry>,
    /// On-loop wall-clock of the secure pipeline's phases, for profiling
    /// (machine-dependent, so never part of a report fingerprint).
    pub secure_timings: Option<crate::secure::SecureTimings>,
    /// Clip counts, release trace and cumulative ε of the
    /// [`DpAggregator`].
    pub dp: Option<&'a crate::dp::DpTelemetry>,
    /// Rejection counts and the estimator trace of the
    /// [`RobustAggregator`].
    pub robust: Option<&'a crate::robust::RobustTelemetry>,
}

/// An aggregation strategy: buffers client updates and releases a
/// weighted-average model delta when its readiness condition is met.
///
/// `now_s` is virtual time in seconds.  Purely count-based strategies ignore
/// it; time-aware strategies (deadline release) use it, which is why it
/// threads through [`accumulate`](Aggregator::accumulate),
/// [`is_ready`](Aggregator::is_ready), and [`take`](Aggregator::take).
pub trait Aggregator: Send {
    /// Offers an update; `current_version` is the server model version at
    /// upload time (used to compute staleness).
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome;

    /// Returns true once the release condition is met at `now_s`.
    fn is_ready(&self, now_s: f64) -> bool;

    /// Releases the aggregated (weighted-average) update and clears the
    /// buffer, or returns `None` when [`is_ready`](Aggregator::is_ready) is
    /// false at `now_s`.
    ///
    /// If every buffered update carried zero weight the release is a zero
    /// delta (a no-op server step) rather than the unscaled raw sum.
    fn take(&mut self, now_s: f64) -> Option<ParamVec>;

    /// Discards all buffered updates without releasing them (the process
    /// holding the buffer died).  Returns how many buffered updates were
    /// dropped.
    fn reset(&mut self) -> usize;

    /// The configured aggregation goal (`K` for buffered strategies, the
    /// cohort goal for rounds).
    fn goal(&self) -> usize;

    /// The virtual time at which this strategy becomes ready without any
    /// further arrival, if such a time exists (deadline strategies with an
    /// open buffer).  Drivers schedule an exact readiness check at this
    /// time instead of polling.  Count-based strategies return `None`.
    fn next_deadline_s(&self) -> Option<f64>;

    /// The weight this strategy would assign to an accepted update, given
    /// only metadata the server legitimately sees in the clear: the client's
    /// example count and the staleness at upload time.
    ///
    /// Must be a pure function of that metadata (no buffer state) and must
    /// be exactly the weight [`accumulate`](Aggregator::accumulate) folds
    /// with — [`SecureAggregator`] relies on this to
    /// reproduce the weighted average in ciphertext space, where the weight
    /// is applied client-side before masking and the weight *total* is the
    /// only thing the server tracks in the clear.
    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64;

    /// What the decorators of this stack have recorded so far, one field
    /// per layer.  A decorator sets its own field over
    /// `self.inner.stack_telemetry()`; clear strategies record nothing.
    /// This is the only way decorator telemetry leaves the stack — drivers
    /// read it when they need a decision (the ε budget) and copy it into
    /// the run's metrics once, when the report is assembled.
    fn stack_telemetry(&self) -> StackTelemetry<'_>;

    /// Plans the mask work for `client_id`'s next participation, burning its
    /// ratchet counter (session-cached secure aggregation only); the mask
    /// is expanded from the plan at [`accumulate`](Aggregator::accumulate).
    /// Must be called exactly once per participation that will reach
    /// `accumulate`, in driver event order.  No-op for clear strategies.
    fn plan_mask_precompute(&mut self, client_id: usize);
}

/// Builds the aggregation strategy a task's [`TrainingMode`] asks for: one
/// FedBuff buffer, configured per mode.
///
/// This is the only place the mode configures the strategy;
/// [`AggregationStack::for_task`] wraps it in the task's layers.  The
/// participation policy the mode fixes (demand, round closing, the
/// staleness bound) the runtime reads from the config.
pub fn for_task(config: &TaskConfig) -> Box<dyn Aggregator> {
    match config.mode {
        TrainingMode::Async {
            max_staleness: _,
            round_deadline_s,
        } => {
            let fedbuff =
                FedBuffAggregator::new(config.aggregation_goal, StalenessWeighting::PolynomialHalf)
                    .with_example_weighting(config.weight_by_examples);
            Box::new(match round_deadline_s {
                Some(deadline_s) => fedbuff.with_round_deadline(deadline_s),
                None => fedbuff,
            })
        }
        // Within a round the server model does not move; constant weighting
        // keeps the weight the example count without relying on that.
        TrainingMode::Sync => Box::new(
            FedBuffAggregator::new(config.aggregation_goal, StalenessWeighting::Constant)
                .with_example_weighting(config.weight_by_examples),
        ),
    }
}

/// The aggregation stack of one task: its [`for_task`] strategy inside the
/// layers its config asks for, always as `robust(dp(secure(strategy)))`,
/// each layer optional.
///
/// [`AggregationStack::for_task`] is the only constructor, so every stack a
/// run holds has the same order:
///
/// - SecAgg ([`SecAggMode`]) wraps the strategy: masking on accumulate, a
///   per-buffer TSA key release on take, crash-time buffer drops without a
///   key release, at the threshold [`secure::recommended_threshold`]
///   derives from the mode;
/// - DP ([`crate::dp::DpConfig`]) goes outside SecAgg, so clipping happens
///   on the client before any masking and the release noise lands on the
///   decoded aggregate (where the TEE would add it);
/// - the robust defense ([`crate::robust::RobustConfig`]) goes outermost:
///   it screens raw client updates before any layer buffers them, and its
///   engaged estimators replace the final release.  No inner layer ever
///   sees an update it refuses.
pub struct AggregationStack {
    tower: Box<dyn Aggregator>,
}

impl AggregationStack {
    /// Builds the stack `config` asks for.  `dim` is the length of the
    /// updates (the secure layer sizes its group vectors by it) and `seed`
    /// the task seed, from which the secure protocol and the DP noise draw
    /// their own streams.
    pub fn for_task(config: &TaskConfig, dim: usize, seed: u64) -> Self {
        let strategy = for_task(config);
        // The two secure modes differ only in the key-exchange schedule.
        let secure: Option<fn(_, _, _, _) -> SecureAggregator> = match config.secagg {
            SecAggMode::Disabled => None,
            SecAggMode::AsyncSecAgg => Some(SecureAggregator::new),
            SecAggMode::AsyncSecAggPerUpdate => Some(SecureAggregator::new_per_update),
        };
        let tower: Box<dyn Aggregator> = match secure {
            None => strategy,
            Some(build) => {
                let mut secure = build(
                    strategy,
                    dim,
                    secure::recommended_threshold(config),
                    // Domain-separate the protocol stream from the training
                    // and driver streams derived from the same task seed.
                    seed ^ 0x5ECA_665E_CA66,
                );
                if let Some(spec) = config.adversary {
                    // Arms wrong-counter / garbage-mask uploads for the
                    // spec's malicious cohort (no-op for payload attacks):
                    // the simulated malicious client lives inside the
                    // secure pipeline's client side.
                    secure = secure.with_deviation(spec);
                }
                Box::new(secure)
            }
        };
        let tower: Box<dyn Aggregator> = match config.dp {
            None => tower,
            // Domain-separate the noise stream from the training, driver,
            // and secure-protocol streams derived from the same task seed
            // (DpAggregator hashes its seed again under a dp-only domain).
            Some(dp) => Box::new(DpAggregator::new(tower, dp, seed ^ 0xD1FF_D1FF)),
        };
        let tower: Box<dyn Aggregator> = match config.robust {
            None => tower,
            // Fully deterministic: no seed to domain-separate.
            Some(robust) => Box::new(RobustAggregator::new(tower, robust)),
        };
        AggregationStack { tower }
    }

    /// [`Aggregator::accumulate`] through every layer.
    pub fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        self.tower.accumulate(update, current_version, now_s)
    }

    /// [`Aggregator::is_ready`].
    pub fn is_ready(&self, now_s: f64) -> bool {
        self.tower.is_ready(now_s)
    }

    /// [`Aggregator::take`]: the release every layer has processed.
    pub fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        self.tower.take(now_s)
    }

    /// [`Aggregator::reset`]: every layer drops its buffer.
    pub fn reset(&mut self) -> usize {
        self.tower.reset()
    }

    /// [`Aggregator::next_deadline_s`].
    pub fn next_deadline_s(&self) -> Option<f64> {
        self.tower.next_deadline_s()
    }

    /// [`Aggregator::plan_mask_precompute`].
    pub fn plan_mask_precompute(&mut self, client_id: usize) {
        self.tower.plan_mask_precompute(client_id);
    }

    /// What the stack's layers have recorded so far, one field per layer.
    pub fn telemetry(&self) -> StackTelemetry<'_> {
        self.tower.stack_telemetry()
    }
}

/// The weighted running sum behind [`FedBuffAggregator`]: folds
/// deltas scaled by their weight and releases the weighted average (or a
/// zero delta when all weights were zero).
#[derive(Clone, Debug, Default)]
pub(crate) struct WeightedBuffer {
    buffer: Option<ParamVec>,
    weight_sum: f64,
    buffered: usize,
}

impl WeightedBuffer {
    /// Folds one delta with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if the delta's dimensionality differs from earlier deltas.
    pub(crate) fn fold(&mut self, delta: &ParamVec, weight: f64) {
        let buffer = self
            .buffer
            .get_or_insert_with(|| ParamVec::zeros(delta.len()));
        assert_eq!(
            buffer.len(),
            delta.len(),
            "update dimensionality changed mid-training"
        );
        buffer.add_scaled(delta, weight as f32);
        self.weight_sum += weight;
        self.buffered += 1;
    }

    /// Number of deltas folded since the last release or clear.
    pub(crate) fn len(&self) -> usize {
        self.buffered
    }

    /// Releases the weighted average and empties the buffer.  Returns `None`
    /// when nothing was buffered; returns a zero delta when every folded
    /// update carried zero weight.
    pub(crate) fn release(&mut self) -> Option<ParamVec> {
        let mut buffer = self.buffer.take()?;
        if self.weight_sum > 0.0 {
            buffer.scale((1.0 / self.weight_sum) as f32);
        } else {
            buffer = ParamVec::zeros(buffer.len());
        }
        self.weight_sum = 0.0;
        self.buffered = 0;
        Some(buffer)
    }

    /// Discards the buffer contents; returns how many deltas were dropped.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.buffered;
        self.buffer = None;
        self.weight_sum = 0.0;
        self.buffered = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_the_mode_the_config_asks_for() {
        let update = ClientUpdate {
            client_id: 0,
            delta: ParamVec::from_vec(vec![1.0]),
            num_examples: 1,
            start_version: 0,
            train_loss: 0.0,
        };
        let async_fedbuff = for_task(&TaskConfig::async_task("a", 10, 4));
        assert_eq!(async_fedbuff.goal(), 4);
        assert_eq!(async_fedbuff.next_deadline_s(), None);
        // FedBuff down-weights by staleness: 1/√(1+3) halves a weight.
        assert_eq!(async_fedbuff.update_weight(10, 3), 5.0);

        let sync_round = for_task(&TaskConfig::sync_task("s", 13, 0.3));
        assert_eq!(sync_round.goal(), 10);
        assert_eq!(sync_round.update_weight(10, 3), 10.0);

        let mut hybrid = for_task(&TaskConfig::timed_hybrid_task("h", 10, 4, 120.0));
        assert_eq!(hybrid.goal(), 4);
        // The first update of a buffer opens the deadline window.
        assert!(hybrid.accumulate(update, 0, 30.0).accepted());
        assert_eq!(hybrid.next_deadline_s(), Some(150.0));
    }

    #[test]
    fn factory_respects_example_weighting_flag() {
        let task = TaskConfig::async_task("a", 10, 2).with_example_weighting(false);
        let mut agg = for_task(&task);
        let update = |id: usize, value: f32, examples: usize| ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(vec![value]),
            num_examples: examples,
            start_version: 0,
            train_loss: 0.0,
        };
        agg.accumulate(update(0, 0.0, 1000), 0, 0.0);
        agg.accumulate(update(1, 2.0, 1), 0, 0.0);
        assert!((agg.take(0.0).unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
    }

    /// A task under every layer: SecAgg, DP and a norm filter.
    fn fully_stacked_task() -> TaskConfig {
        TaskConfig::async_task("stack", 8, 2)
            .with_secagg(SecAggMode::AsyncSecAgg)
            .with_dp(crate::DpConfig::new(4.0, 0.5))
            .with_robust(crate::RobustConfig::new(crate::RobustDefense::NormFilter {
                max_norm: 5.0,
            }))
    }

    fn unit_update(client_id: usize, value: f32) -> ClientUpdate {
        ClientUpdate {
            client_id,
            delta: ParamVec::from_vec(vec![value; 4]),
            num_examples: 10,
            start_version: 0,
            train_loss: 0.0,
        }
    }

    #[test]
    fn aggregation_stack_screens_updates_before_any_inner_layer() {
        let mut stack = AggregationStack::for_task(&fully_stacked_task(), 4, 9);
        stack.plan_mask_precompute(0);
        assert_eq!(
            stack.accumulate(unit_update(0, 100.0), 0, 0.0),
            AccumulateOutcome::RejectedByDefense
        );
        let telemetry = stack.telemetry();
        let (secure, dp) = (telemetry.secure.unwrap(), telemetry.dp.unwrap());
        assert_eq!(telemetry.robust.unwrap().rejected_by_norm, 1);
        assert_eq!(secure.masked_updates, 0);
        assert_eq!(secure.masked_discarded, 0);
        assert_eq!(dp.accepted_updates, 0);
        // An update within the bound reaches every layer.
        stack.plan_mask_precompute(1);
        assert!(stack.accumulate(unit_update(1, 0.5), 0, 1.0).accepted());
        let telemetry = stack.telemetry();
        assert_eq!(telemetry.secure.unwrap().masked_updates, 1);
        assert_eq!(telemetry.dp.unwrap().accepted_updates, 1);
    }

    #[test]
    fn aggregation_stack_is_the_hand_built_tower() {
        // A protocol deviation, so the secure layer's arming is compared too.
        let deviation = crate::Malice::SecAggDeviation {
            kind: crate::DeviationKind::WrongCounter,
        };
        let task = fully_stacked_task().with_adversary(crate::AdversarySpec::new(0.5, deviation));
        let seed = 9;
        let secure = SecureAggregator::new(
            for_task(&task),
            4,
            secure::recommended_threshold(&task),
            seed ^ 0x5ECA_665E_CA66,
        )
        .with_deviation(task.adversary.unwrap());
        let dp = DpAggregator::new(Box::new(secure), task.dp.unwrap(), seed ^ 0xD1FF_D1FF);
        let mut tower = RobustAggregator::new(Box::new(dp), task.robust.unwrap());
        let mut stack = AggregationStack::for_task(&task, 4, seed);
        let bits = |delta: Option<ParamVec>| {
            delta.map(|d| d.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        for client_id in 0..6 {
            tower.plan_mask_precompute(client_id);
            stack.plan_mask_precompute(client_id);
            let value = client_id as f32 * 0.25 - 0.5;
            let now = client_id as f64;
            assert_eq!(
                tower.accumulate(unit_update(client_id, value), 0, now),
                stack.accumulate(unit_update(client_id, value), 0, now)
            );
            assert_eq!(tower.is_ready(now), stack.is_ready(now));
            assert_eq!(bits(tower.take(now)), bits(stack.take(now)));
        }
        let (expected, actual) = (tower.stack_telemetry(), stack.telemetry());
        assert_eq!(expected.secure, actual.secure);
        assert_eq!(expected.dp, actual.dp);
        assert_eq!(expected.robust, actual.robust);
    }

    #[test]
    fn aggregation_stack_without_layers_reports_none() {
        let mut stack = AggregationStack::for_task(&TaskConfig::sync_task("s", 2, 0.0), 4, 9);
        stack.plan_mask_precompute(0);
        assert!(stack.accumulate(unit_update(0, 1.0), 0, 0.0).accepted());
        assert!(!stack.is_ready(0.0));
        assert_eq!(stack.next_deadline_s(), None);
        assert_eq!(stack.reset(), 1);
        let telemetry = stack.telemetry();
        assert!(telemetry.secure.is_none() && telemetry.dp.is_none());
        assert!(telemetry.robust.is_none() && telemetry.secure_timings.is_none());
    }

    #[test]
    fn weighted_buffer_averages_and_clears() {
        let mut buffer = WeightedBuffer::default();
        buffer.fold(&ParamVec::from_vec(vec![2.0]), 1.0);
        buffer.fold(&ParamVec::from_vec(vec![4.0]), 3.0);
        assert_eq!(buffer.len(), 2);
        let out = buffer.release().unwrap();
        assert!((out.as_slice()[0] - 3.5).abs() < 1e-6);
        assert_eq!(buffer.len(), 0);
        assert!(buffer.release().is_none());
    }

    #[test]
    fn weighted_buffer_zero_weight_releases_zero_delta() {
        let mut buffer = WeightedBuffer::default();
        buffer.fold(&ParamVec::from_vec(vec![5.0, -3.0]), 0.0);
        assert_eq!(buffer.release().unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn trait_objects_are_interchangeable() {
        let update = |id: usize, value: f32| ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(vec![value]),
            num_examples: 10,
            start_version: 0,
            train_loss: 0.0,
        };
        let mut strategies: Vec<Box<dyn Aggregator>> = vec![
            Box::new(FedBuffAggregator::new(2, StalenessWeighting::Constant)),
            Box::new(
                FedBuffAggregator::new(2, StalenessWeighting::Constant).with_round_deadline(60.0),
            ),
        ];
        for agg in &mut strategies {
            assert!(agg.accumulate(update(0, 2.0), 0, 0.0).accepted());
            assert!(!agg.is_ready(0.0));
            assert!(agg.accumulate(update(1, 4.0), 0, 1.0).accepted());
            assert!(agg.is_ready(1.0));
            assert_eq!(agg.take(1.0).unwrap().as_slice(), &[3.0]);
        }
    }
}
