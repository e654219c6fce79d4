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
//!   asynchronous aggregation: release after `K` accepted updates, stale
//!   updates down-weighted or rejected (Section 3.1 / Appendix E.2).  An
//!   optional round deadline also releases whatever has arrived once it
//!   expires, bounding the straggler tail the paper's sync/async comparison
//!   is about;
//! * [`SyncRoundAggregator`] —
//!   synchronous rounds with over-selection: release once the cohort goal is
//!   met, later arrivals discarded, and a release closes the round
//!   (Section 7 / Appendix E.3).
//!
//! [`for_task`] builds the strategy a [`TaskConfig`] asks for, so drivers
//! hold a `Box<dyn Aggregator>` and stay mode-agnostic.
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
    /// The update exceeded the maximum allowed staleness and was discarded.
    RejectedStale {
        /// Staleness of the rejected update.
        staleness: u64,
        /// The configured bound it exceeded.
        max_staleness: u64,
    },
    /// The update arrived after the goal was already met and was discarded
    /// (the over-selection waste of synchronous rounds).
    Discarded,
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

/// Lifetime counters every aggregation strategy maintains.
///
/// The counters survive [`Aggregator::take`] and [`Aggregator::reset`]: they
/// describe the aggregator's whole history, not the buffer in progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Updates folded into a buffer.
    pub accepted: u64,
    /// Updates rejected for exceeding the staleness bound.
    pub rejected_stale: u64,
    /// Updates discarded because the goal was already met.
    pub discarded: u64,
    /// Sum of staleness over accepted updates.
    pub staleness_sum: u64,
    /// Largest staleness observed among accepted updates.
    pub max_observed_staleness: u64,
}

impl AggregatorStats {
    /// Mean staleness of accepted updates.
    pub fn mean_staleness(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.accepted as f64
        }
    }

    /// Records an accepted update of the given staleness.
    ///
    /// All counters saturate instead of wrapping, so week-long soak runs
    /// cannot panic a debug build on overflow.
    pub fn record_accepted(&mut self, staleness: u64) {
        self.accepted = self.accepted.saturating_add(1);
        self.staleness_sum = self.staleness_sum.saturating_add(staleness);
        self.max_observed_staleness = self.max_observed_staleness.max(staleness);
    }

    /// Records an update rejected for exceeding the staleness bound
    /// (saturating).
    pub fn record_rejected_stale(&mut self) {
        self.rejected_stale = self.rejected_stale.saturating_add(1);
    }

    /// Records an update discarded because the goal was already met
    /// (saturating).
    pub fn record_discarded(&mut self) {
        self.discarded = self.discarded.saturating_add(1);
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
    /// dropped.  Lifetime [`stats`](Aggregator::stats) are preserved.
    fn reset(&mut self) -> usize;

    /// The configured aggregation goal (`K` for buffered strategies, the
    /// cohort goal for rounds).
    fn goal(&self) -> usize;

    /// Number of updates currently buffered.
    fn buffered(&self) -> usize;

    /// Lifetime counters (accepted/rejected/staleness).
    fn stats(&self) -> &AggregatorStats;

    /// The staleness bound this strategy enforces, if any.  Drivers use it
    /// to abort in-flight clients whose update could never be accepted
    /// (Appendix E.1).
    fn max_staleness(&self) -> Option<u64> {
        None
    }

    /// The virtual time at which this strategy becomes ready without any
    /// further arrival, if such a time exists (deadline strategies with an
    /// open buffer).  Drivers schedule an exact readiness check at this
    /// time instead of polling.  Count-based strategies return `None`.
    fn next_deadline_s(&self) -> Option<f64> {
        None
    }

    /// Whether a release closes a cohort round: participants that started
    /// before the release are aborted and late arrivals from earlier rounds
    /// discarded.  Buffered strategies return false — stragglers keep
    /// training and their updates stay welcome, subject to staleness.
    fn closes_round_on_release(&self) -> bool {
        false
    }

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
    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry::default()
    }

    /// Plans the mask work for `client_id`'s next participation, burning its
    /// ratchet counter (session-cached secure aggregation only).  The plan
    /// is pure — drivers may compute it speculatively on a worker thread —
    /// and must be called exactly once per participation that will reach
    /// [`accumulate`](Aggregator::accumulate), in driver event order.
    /// Clear strategies return `None`.
    fn plan_mask_precompute(&mut self, _client_id: usize) -> Option<crate::secure::MaskPlan> {
        None
    }

    /// Hands back the result of a speculatively computed
    /// [`plan_mask_precompute`](Aggregator::plan_mask_precompute) plan so
    /// the next [`accumulate`](Aggregator::accumulate) for that client can
    /// skip the inline computation.  Stale results (from before an
    /// invalidation) are ignored.  No-op for clear strategies.
    fn provide_precomputed_mask(
        &mut self,
        _client_id: usize,
        _mask: crate::secure::PrecomputedMask,
    ) {
    }
}

/// Builds the aggregation strategy a task's [`TrainingMode`] asks for.
///
/// This is the only place mode is ever inspected; everything downstream
/// works through `Box<dyn Aggregator>`.
pub fn for_task(config: &TaskConfig) -> Box<dyn Aggregator> {
    match config.mode {
        TrainingMode::Async {
            max_staleness,
            round_deadline_s,
        } => {
            let fedbuff = FedBuffAggregator::new(
                config.aggregation_goal,
                StalenessWeighting::PolynomialHalf,
                Some(max_staleness),
            )
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
    pub fn fold(&mut self, delta: &ParamVec, weight: f64) {
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
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// Releases the weighted average and empties the buffer.  Returns `None`
    /// when nothing was buffered; returns a zero delta when every folded
    /// update carried zero weight.
    pub fn release(&mut self) -> Option<ParamVec> {
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
    pub fn clear(&mut self) -> usize {
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
        let async_agg = for_task(&TaskConfig::async_task("a", 10, 4));
        assert_eq!(async_agg.goal(), 4);
        assert_eq!(async_agg.max_staleness(), Some(500));
        assert!(!async_agg.closes_round_on_release());

        let sync_agg = for_task(&TaskConfig::sync_task("s", 13, 0.3));
        assert_eq!(sync_agg.goal(), 10);
        assert_eq!(sync_agg.max_staleness(), None);
        assert!(sync_agg.closes_round_on_release());

        let mut hybrid = for_task(&TaskConfig::timed_hybrid_task("h", 10, 4, 120.0));
        assert_eq!(hybrid.goal(), 4);
        assert_eq!(hybrid.max_staleness(), Some(500));
        assert!(!hybrid.closes_round_on_release());
        let update = ClientUpdate {
            client_id: 0,
            delta: ParamVec::from_vec(vec![1.0]),
            num_examples: 1,
            start_version: 0,
            train_loss: 0.0,
        };
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
    fn stats_track_mean_and_max_staleness() {
        let mut stats = AggregatorStats::default();
        assert_eq!(stats.mean_staleness(), 0.0);
        stats.record_accepted(0);
        stats.record_accepted(4);
        assert_eq!(stats.accepted, 2);
        assert!((stats.mean_staleness() - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_observed_staleness, 4);
    }

    #[test]
    fn stats_counters_saturate_instead_of_overflowing() {
        // A soak run that somehow reaches u64::MAX must not panic in debug
        // builds; the counters pin at the maximum.
        let mut stats = AggregatorStats {
            accepted: u64::MAX,
            rejected_stale: u64::MAX,
            discarded: u64::MAX,
            staleness_sum: u64::MAX - 1,
            max_observed_staleness: 0,
        };
        stats.record_accepted(7);
        stats.record_rejected_stale();
        stats.record_discarded();
        assert_eq!(stats.accepted, u64::MAX);
        assert_eq!(stats.rejected_stale, u64::MAX);
        assert_eq!(stats.discarded, u64::MAX);
        assert_eq!(stats.staleness_sum, u64::MAX);
        assert_eq!(stats.max_observed_staleness, 7);
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
            Box::new(FedBuffAggregator::new(
                2,
                StalenessWeighting::Constant,
                None,
            )),
            Box::new(SyncRoundAggregator::new(2)),
            Box::new(
                FedBuffAggregator::new(2, StalenessWeighting::Constant, None)
                    .with_round_deadline(60.0),
            ),
        ];
        for agg in &mut strategies {
            assert!(agg.accumulate(update(0, 2.0), 0, 0.0).accepted());
            assert!(!agg.is_ready(0.0));
            assert!(agg.accumulate(update(1, 4.0), 0, 1.0).accepted());
            assert!(agg.is_ready(1.0));
            assert_eq!(agg.take(1.0).unwrap().as_slice(), &[3.0]);
            assert_eq!(agg.stats().accepted, 2);
        }
    }
}
