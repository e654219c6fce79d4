//! The aggregation protocol: one trait, many strategies.
//!
//! PAPAYA's central systems claim is that a single server architecture
//! serves synchronous rounds, buffered asynchronous aggregation, and
//! anything in between through configuration alone.  This module is that
//! claim in interface form: an [`Aggregator`] folds client updates into a
//! buffer, decides when the buffer is ready, and releases a weighted-average
//! delta for the server optimizer — while the runtime driving it never
//! branches on *which* strategy is plugged in.
//!
//! Two strategies implement the trait:
//!
//! * [`FedBuffAggregator`] — buffered
//!   asynchronous aggregation: release after `K` updates, stale updates
//!   down-weighted (Section 3.1 / Appendix E.2).  An optional round
//!   deadline also releases whatever has arrived once it expires, bounding
//!   the straggler tail the paper's sync/async comparison is about;
//! * [`SyncRoundAggregator`] —
//!   synchronous rounds with over-selection: release once the cohort goal is
//!   met (Section 7 / Appendix E.3).
//!
//! [`for_task`] builds the strategy a [`TaskConfig`] asks for, so drivers
//! hold a `Box<dyn Aggregator>` and never branch on the strategy.
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
use crate::config::{TaskConfig, TrainingMode};
use crate::fedbuff::FedBuffAggregator;
use crate::staleness::StalenessWeighting;
use crate::sync_agg::SyncRoundAggregator;
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
    /// ([`crate::robust::RobustAggregator`]).
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
    /// [`SecureAggregator`](crate::secure::SecureAggregator).
    pub secure: Option<&'a crate::secure::SecureTelemetry>,
    /// On-loop wall-clock of the secure pipeline's phases, for profiling
    /// (machine-dependent, so never part of a report fingerprint).
    pub secure_timings: Option<crate::secure::SecureTimings>,
    /// Clip counts, release trace and cumulative ε of the
    /// [`DpAggregator`](crate::dp::DpAggregator).
    pub dp: Option<&'a crate::dp::DpTelemetry>,
    /// Rejection counts and the estimator trace of the
    /// [`RobustAggregator`](crate::robust::RobustAggregator).
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

    /// Number of updates currently buffered.
    fn buffered(&self) -> usize;

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
    /// with — [`crate::secure::SecureAggregator`] relies on this to
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

/// Builds the aggregation strategy a task's [`TrainingMode`] asks for.
///
/// This is the only place the mode picks a strategy; everything downstream
/// works through `Box<dyn Aggregator>`.  The participation policy the mode
/// fixes (demand, round closing, the staleness bound) the runtime reads
/// from the config.
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
        TrainingMode::Sync => Box::new(
            SyncRoundAggregator::new(config.aggregation_goal)
                .with_example_weighting(config.weight_by_examples),
        ),
    }
}

/// The weighted running sum shared by every buffering strategy: folds
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
        let async_agg = for_task(&TaskConfig::async_task("a", 10, 4));
        assert_eq!(async_agg.goal(), 4);
        assert_eq!(async_agg.next_deadline_s(), None);
        // FedBuff down-weights by staleness: 1/√(1+3) halves a weight.
        assert_eq!(async_agg.update_weight(10, 3), 5.0);

        let sync_agg = for_task(&TaskConfig::sync_task("s", 13, 0.3));
        assert_eq!(sync_agg.goal(), 10);
        assert_eq!(sync_agg.update_weight(10, 3), 10.0);

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
            Box::new(SyncRoundAggregator::new(2)),
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
