//! Synchronous round aggregation with over-selection.
//!
//! In SyncFL a cohort of clients is selected for each round.  With
//! over-selection factor `o`, `goal * (1 + o)` clients train but only the
//! first `goal` updates to arrive are aggregated; the rest are discarded
//! (wasted work, and the source of the sampling bias studied in Section 7.4).
//! PAPAYA's SyncFL implementation additionally allows replacing clients that
//! drop out mid-round.
//!
//! `SyncRoundAggregator` implements the [`Aggregator`] protocol for
//! [`TrainingMode::Sync`](crate::config::TrainingMode::Sync) tasks.  That a
//! release closes the round is the mode's policy, not the strategy's: the
//! runtime reads it from the task config and aborts still-running cohort
//! members when the strategy releases.

use crate::aggregator::{AccumulateOutcome, Aggregator, StackTelemetry, WeightedBuffer};
use crate::client::ClientUpdate;
use papaya_nn::params::ParamVec;

/// Aggregator for one synchronous round.
#[derive(Clone, Debug)]
pub struct SyncRoundAggregator {
    aggregation_goal: usize,
    weight_by_examples: bool,
    buffer: WeightedBuffer,
}

impl SyncRoundAggregator {
    /// Creates an aggregator that releases after `aggregation_goal` updates.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation_goal == 0`.
    pub fn new(aggregation_goal: usize) -> Self {
        assert!(aggregation_goal > 0, "aggregation goal must be positive");
        SyncRoundAggregator {
            aggregation_goal,
            weight_by_examples: true,
            buffer: WeightedBuffer::default(),
        }
    }

    /// Disables (or re-enables) weighting by example count.
    pub fn with_example_weighting(mut self, enabled: bool) -> Self {
        self.weight_by_examples = enabled;
        self
    }
}

impl Aggregator for SyncRoundAggregator {
    /// Offers an update.  Updates arriving after the round reached its goal
    /// are discarded (the over-selection waste path).  Within a round the
    /// server model does not move, so staleness is always zero; virtual time
    /// is ignored.
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        _now_s: f64,
    ) -> AccumulateOutcome {
        if self.buffer.len() >= self.aggregation_goal {
            return AccumulateOutcome::Discarded;
        }
        let staleness = update.staleness(current_version);
        let weight = self.update_weight(update.num_examples, staleness);
        self.buffer.fold(&update.delta, weight);
        AccumulateOutcome::Accepted { staleness }
    }

    fn is_ready(&self, _now_s: f64) -> bool {
        self.buffer.len() >= self.aggregation_goal
    }

    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        if !self.is_ready(now_s) {
            return None;
        }
        self.buffer.release()
    }

    fn reset(&mut self) -> usize {
        self.buffer.clear()
    }

    fn goal(&self) -> usize {
        self.aggregation_goal
    }

    fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Rounds release by count only.
    fn next_deadline_s(&self) -> Option<f64> {
        None
    }

    /// Zero-example clients carry zero weight: counted toward the round
    /// goal but contributing nothing to the average.  Within a round the
    /// server model does not move, so staleness never enters the weight.
    fn update_weight(&self, num_examples: usize, _staleness: u64) -> f64 {
        if self.weight_by_examples {
            num_examples as f64
        } else {
            1.0
        }
    }

    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry::default()
    }

    fn plan_mask_precompute(&mut self, _client_id: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;

    fn update(id: usize, delta: Vec<f32>, examples: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(delta),
            num_examples: examples,
            start_version: 0,
            train_loss: 0.0,
        }
    }

    #[test]
    fn aggregates_weighted_average() {
        let mut agg = SyncRoundAggregator::new(2);
        assert!(agg.accumulate(update(0, vec![1.0], 10), 0, 0.0).accepted());
        assert!(agg.accumulate(update(1, vec![4.0], 30), 0, 0.0).accepted());
        let out = agg.take(0.0).unwrap();
        // (1*10 + 4*30) / 40 = 3.25
        assert!((out.as_slice()[0] - 3.25).abs() < 1e-6);
    }

    #[test]
    fn updates_after_goal_are_discarded() {
        let mut agg = SyncRoundAggregator::new(1);
        assert!(agg.accumulate(update(0, vec![1.0], 1), 0, 0.0).accepted());
        assert_eq!(
            agg.accumulate(update(1, vec![100.0], 1), 0, 0.0),
            AccumulateOutcome::Discarded
        );
        let out = agg.take(0.0).unwrap();
        assert_eq!(out.as_slice(), &[1.0]);
    }

    #[test]
    fn take_before_ready_is_none() {
        let mut agg = SyncRoundAggregator::new(3);
        agg.accumulate(update(0, vec![1.0], 1), 0, 0.0);
        assert!(!agg.is_ready(0.0));
        assert!(agg.take(0.0).is_none());
    }

    #[test]
    fn consecutive_rounds_are_independent() {
        let mut agg = SyncRoundAggregator::new(1);
        agg.accumulate(update(0, vec![2.0], 1), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[2.0]);
        agg.accumulate(update(1, vec![-2.0], 1), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[-2.0]);
    }

    #[test]
    fn all_zero_weight_round_releases_zero_delta() {
        let mut agg = SyncRoundAggregator::new(2);
        agg.accumulate(update(0, vec![7.0], 0), 0, 0.0);
        agg.accumulate(update(1, vec![-3.0], 0), 0, 0.0);
        assert!(agg.is_ready(0.0));
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[0.0]);
        // The next round is unaffected.
        agg.accumulate(update(2, vec![2.0], 4), 0, 0.0);
        agg.accumulate(update(3, vec![2.0], 4), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn reset_abandons_round_in_progress() {
        let mut agg = SyncRoundAggregator::new(3);
        agg.accumulate(update(0, vec![1.0], 1), 0, 0.0);
        agg.accumulate(update(1, vec![1.0], 1), 0, 0.0);
        assert_eq!(agg.reset(), 2);
        assert_eq!(agg.buffered(), 0);
        assert!(agg.take(0.0).is_none());
        agg.accumulate(update(2, vec![5.0], 1), 0, 0.0);
        agg.accumulate(update(3, vec![5.0], 1), 0, 0.0);
        agg.accumulate(update(4, vec![5.0], 1), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[5.0]);
    }

    #[test]
    fn unweighted_mode_ignores_example_counts() {
        let mut agg = SyncRoundAggregator::new(2).with_example_weighting(false);
        agg.accumulate(update(0, vec![0.0], 1000), 0, 0.0);
        agg.accumulate(update(1, vec![2.0], 1), 0, 0.0);
        assert!((agg.take(0.0).unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
    }
}
