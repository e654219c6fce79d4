//! Buffered asynchronous aggregation (FedBuff) as deployed by PAPAYA.
//!
//! Clients upload updates whenever they finish; the aggregator folds each
//! update into a buffer, weighting it by the client's example count and a
//! staleness factor.  Once `K` (the *aggregation goal*) updates have been
//! buffered, the weighted average is released and the server model takes a
//! step.  The staleness bound is the runtime's: it aborts clients staler
//! than the task's maximum after every release (Appendix E.1/E.2), so no
//! such upload reaches the buffer.
//!
//! A count alone can stall when arrivals dry up (small populations,
//! aggressive eligibility criteria, night-time troughs).  An optional round
//! deadline ([`FedBuffAggregator::with_round_deadline`]) bounds that tail:
//! the moment the first update of a buffer arrives a deadline starts
//! ticking, and when it expires the buffer is released with whatever has
//! arrived.  Unlike a synchronous round, a deadline release does not close a
//! round: still-running clients keep training and their uploads remain
//! welcome, subject to the runtime's staleness bound.
//!
//! `FedBuffAggregator` implements the [`Aggregator`] protocol; drivers hold
//! it as `Box<dyn Aggregator>` next to the synchronous strategy.

use crate::aggregator::AccumulateOutcome;
use crate::aggregator::{Aggregator, StackTelemetry, WeightedBuffer};
use crate::client::ClientUpdate;
use crate::staleness::StalenessWeighting;
use papaya_nn::params::ParamVec;

/// The FedBuff buffered aggregator.
#[derive(Clone, Debug)]
pub struct FedBuffAggregator {
    aggregation_goal: usize,
    staleness_weighting: StalenessWeighting,
    weight_by_examples: bool,
    /// Seconds after a buffer opens at which it is released even below the
    /// goal; `None` releases by count only.
    round_deadline_s: Option<f64>,
    buffer: WeightedBuffer,
    /// When the first update of the current buffer arrived.  Set only while
    /// a deadline is configured and the buffer is non-empty.
    open_since_s: Option<f64>,
}

impl FedBuffAggregator {
    /// Creates an aggregator with aggregation goal `K`.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation_goal == 0`.
    pub fn new(aggregation_goal: usize, staleness_weighting: StalenessWeighting) -> Self {
        assert!(aggregation_goal > 0, "aggregation goal must be positive");
        FedBuffAggregator {
            aggregation_goal,
            staleness_weighting,
            weight_by_examples: true,
            round_deadline_s: None,
            buffer: WeightedBuffer::default(),
            open_since_s: None,
        }
    }

    /// Disables (or re-enables) weighting by example count.
    pub(crate) fn with_example_weighting(mut self, enabled: bool) -> Self {
        self.weight_by_examples = enabled;
        self
    }

    /// Also releases a buffer `round_deadline_s` seconds after its first
    /// update arrived, whichever of goal and deadline comes first.
    ///
    /// # Panics
    ///
    /// Panics if `round_deadline_s` is not positive and finite.
    pub fn with_round_deadline(mut self, round_deadline_s: f64) -> Self {
        assert!(
            round_deadline_s > 0.0 && round_deadline_s.is_finite(),
            "round deadline must be positive and finite"
        );
        self.round_deadline_s = Some(round_deadline_s);
        self
    }
}

impl Aggregator for FedBuffAggregator {
    /// Folds an update into the buffer; `current_version` is the server
    /// model version at upload time (used to compute staleness).  Virtual
    /// time matters only with a round deadline: the first update of a
    /// buffer starts it.
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        let staleness = update.staleness(current_version);
        let weight = self.update_weight(update.num_examples, staleness);
        if self.round_deadline_s.is_some() && self.buffer.len() == 0 {
            self.open_since_s = Some(now_s);
        }
        self.buffer.fold(&update.delta, weight);
        AccumulateOutcome::Accepted { staleness }
    }

    /// Ready once the goal is met, or once the round deadline of an open
    /// buffer has expired.  The deadline is the very value
    /// [`next_deadline_s`](Aggregator::next_deadline_s) reports, so a driver
    /// that polls at that time always releases; recomputing it as
    /// `now - opened >= deadline` can round below the deadline there.
    fn is_ready(&self, now_s: f64) -> bool {
        self.buffer.len() >= self.aggregation_goal
            || self
                .next_deadline_s()
                .is_some_and(|deadline_s| now_s >= deadline_s)
    }

    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        if !self.is_ready(now_s) {
            return None;
        }
        self.open_since_s = None;
        self.buffer.release()
    }

    fn reset(&mut self) -> usize {
        self.open_since_s = None;
        self.buffer.clear()
    }

    fn goal(&self) -> usize {
        self.aggregation_goal
    }

    fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The virtual time at which the open buffer will be released by the
    /// round deadline; `None` without a deadline or while the buffer is
    /// empty.
    fn next_deadline_s(&self) -> Option<f64> {
        Some(self.open_since_s? + self.round_deadline_s?)
    }

    /// Example weight (a client that trained on zero examples carries zero
    /// weight: it still counts toward the aggregation goal but contributes
    /// nothing) times the staleness down-weight.
    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        let example_weight = if self.weight_by_examples {
            num_examples as f64
        } else {
            1.0
        };
        example_weight * self.staleness_weighting.weight(staleness)
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

    fn update(id: usize, delta: Vec<f32>, examples: usize, start_version: u64) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            delta: ParamVec::from_vec(delta),
            num_examples: examples,
            start_version,
            train_loss: 0.0,
        }
    }

    #[test]
    fn equal_weights_give_plain_average() {
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![2.0, 0.0], 10, 0), 0, 0.0);
        agg.accumulate(update(1, vec![0.0, 4.0], 10, 0), 0, 0.0);
        let out = agg.take(0.0).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn example_weighting_biases_towards_larger_clients() {
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![0.0], 30, 0), 0, 0.0);
        agg.accumulate(update(1, vec![4.0], 10, 0), 0, 0.0);
        let out = agg.take(0.0).unwrap();
        assert!((out.as_slice()[0] - 1.0).abs() < 1e-6); // 4 * 10/40
    }

    #[test]
    fn example_weighting_can_be_disabled() {
        let mut agg =
            FedBuffAggregator::new(2, StalenessWeighting::Constant).with_example_weighting(false);
        agg.accumulate(update(0, vec![0.0], 30, 0), 0, 0.0);
        agg.accumulate(update(1, vec![4.0], 10, 0), 0, 0.0);
        let out = agg.take(0.0).unwrap();
        assert!((out.as_slice()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn stale_updates_are_down_weighted() {
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::PolynomialHalf);
        // Fresh update of 0.0 and an update of 1.0 with staleness 3 (weight 1/2).
        assert_eq!(
            agg.accumulate(update(0, vec![0.0], 10, 5), 5, 0.0),
            AccumulateOutcome::Accepted { staleness: 0 }
        );
        assert_eq!(
            agg.accumulate(update(1, vec![1.0], 10, 2), 5, 0.0),
            AccumulateOutcome::Accepted { staleness: 3 }
        );
        let out = agg.take(0.0).unwrap();
        // Weighted average: (0*1 + 1*0.5) / 1.5 = 1/3.
        assert!((out.as_slice()[0] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn take_before_goal_returns_none() {
        let mut agg = FedBuffAggregator::new(3, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![1.0], 1, 0), 0, 0.0);
        assert!(agg.take(0.0).is_none());
        assert_eq!(agg.buffered(), 1);
    }

    #[test]
    fn buffer_resets_after_take() {
        let mut agg = FedBuffAggregator::new(1, StalenessWeighting::Constant);
        assert!(agg
            .accumulate(update(0, vec![2.0], 1, 0), 0, 0.0)
            .accepted());
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[2.0]);
        assert_eq!(agg.buffered(), 0);
        assert!(agg
            .accumulate(update(1, vec![6.0], 1, 0), 0, 0.0)
            .accepted());
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[6.0]);
    }

    #[test]
    fn goal_of_one_matches_pure_async() {
        let mut agg = FedBuffAggregator::new(1, StalenessWeighting::Constant);
        for i in 0..5 {
            agg.accumulate(update(i, vec![i as f32], 1, 0), 0, 0.0);
            assert!(agg.is_ready(0.0));
            assert_eq!(agg.take(0.0).unwrap().as_slice(), &[i as f32]);
        }
    }

    #[test]
    fn all_zero_weight_buffer_releases_zero_delta() {
        // Two zero-example clients fill the buffer; with example weighting
        // their combined weight is 0, so the release must be a zero delta,
        // not the unscaled raw sum.
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![3.0, -1.0], 0, 0), 0, 0.0);
        agg.accumulate(update(1, vec![5.0, 2.0], 0, 0), 0, 0.0);
        assert!(agg.is_ready(0.0));
        let out = agg.take(0.0).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
        // The aggregator is reusable afterwards.
        agg.accumulate(update(2, vec![4.0, 4.0], 10, 0), 0, 0.0);
        agg.accumulate(update(3, vec![0.0, 0.0], 10, 0), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn zero_example_update_contributes_nothing() {
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![100.0], 0, 0), 0, 0.0);
        agg.accumulate(update(1, vec![4.0], 10, 0), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[4.0]);
    }

    #[test]
    fn reset_drops_buffered_updates() {
        let mut agg = FedBuffAggregator::new(3, StalenessWeighting::Constant);
        assert!(agg
            .accumulate(update(0, vec![1.0], 5, 0), 0, 0.0)
            .accepted());
        assert!(agg
            .accumulate(update(1, vec![2.0], 5, 0), 0, 0.0)
            .accepted());
        assert_eq!(agg.reset(), 2);
        assert_eq!(agg.buffered(), 0);
        assert!(agg.take(0.0).is_none());
        // The next goal starts from an empty buffer.
        agg.accumulate(update(2, vec![9.0], 5, 0), 0, 0.0);
        agg.accumulate(update(3, vec![9.0], 5, 0), 0, 0.0);
        agg.accumulate(update(4, vec![9.0], 5, 0), 0, 0.0);
        assert_eq!(agg.take(0.0).unwrap().as_slice(), &[9.0]);
    }

    fn with_deadline(goal: usize, deadline_s: f64) -> FedBuffAggregator {
        FedBuffAggregator::new(goal, StalenessWeighting::Constant).with_round_deadline(deadline_s)
    }

    #[test]
    fn releases_at_goal_before_the_deadline() {
        let mut agg = with_deadline(2, 1000.0);
        agg.accumulate(update(0, vec![2.0], 10, 0), 0, 0.0);
        assert!(!agg.is_ready(1.0));
        agg.accumulate(update(1, vec![4.0], 10, 0), 0, 2.0);
        assert!(agg.is_ready(2.0));
        assert_eq!(agg.take(2.0).unwrap().as_slice(), &[3.0]);
        assert_eq!(agg.next_deadline_s(), None);
    }

    #[test]
    fn deadline_forces_partial_release() {
        let mut agg = with_deadline(100, 60.0);
        agg.accumulate(update(0, vec![2.0], 10, 0), 0, 10.0);
        assert_eq!(agg.next_deadline_s(), Some(70.0));
        assert!(!agg.is_ready(69.9));
        assert!(agg.take(69.9).is_none());
        assert!(agg.is_ready(70.0));
        assert_eq!(agg.take(70.0).unwrap().as_slice(), &[2.0]);
        assert_eq!(agg.buffered(), 0);
        assert_eq!(agg.next_deadline_s(), None);
    }

    #[test]
    fn ready_at_the_deadline_it_reports() {
        // 1483.801 - 883.801 rounds to 599.9999999999999 in f64, below the
        // deadline, though 883.801 + 600.0 is exactly 1483.801.
        let mut agg = with_deadline(10, 600.0);
        agg.accumulate(update(0, vec![1.0], 1, 0), 0, 883.801);
        assert_eq!(agg.next_deadline_s(), Some(1483.801));
        assert!(agg.is_ready(1483.801));
    }

    #[test]
    fn deadline_restarts_with_each_new_buffer() {
        let mut agg = with_deadline(10, 60.0);
        agg.accumulate(update(0, vec![1.0], 1, 0), 0, 0.0);
        assert!(agg.take(60.0).is_some());
        // The next buffer opens at its own first arrival, not the old one.
        agg.accumulate(update(1, vec![5.0], 1, 0), 0, 100.0);
        assert_eq!(agg.next_deadline_s(), Some(160.0));
        assert!(!agg.is_ready(120.0));
        assert!(agg.is_ready(160.0));
    }

    #[test]
    fn empty_buffer_never_becomes_ready() {
        let agg = with_deadline(10, 60.0);
        assert!(!agg.is_ready(1e9));
        assert_eq!(agg.next_deadline_s(), None);
    }

    #[test]
    fn reset_closes_the_deadline_window() {
        let mut agg = with_deadline(10, 60.0);
        agg.accumulate(update(0, vec![1.0], 1, 0), 0, 0.0);
        agg.accumulate(update(1, vec![1.0], 1, 0), 0, 1.0);
        assert_eq!(agg.reset(), 2);
        assert_eq!(agg.next_deadline_s(), None);
        assert!(!agg.is_ready(1e9));
    }

    #[test]
    #[should_panic(expected = "round deadline must be positive and finite")]
    fn non_positive_deadline_rejected() {
        let _ = with_deadline(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "round deadline must be positive and finite")]
    fn infinite_deadline_rejected() {
        let _ = with_deadline(10, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "aggregation goal must be positive")]
    fn zero_goal_rejected() {
        let _ = FedBuffAggregator::new(0, StalenessWeighting::Constant);
    }

    #[test]
    #[should_panic(expected = "dimensionality changed")]
    fn mismatched_dimensions_panic() {
        let mut agg = FedBuffAggregator::new(2, StalenessWeighting::Constant);
        agg.accumulate(update(0, vec![1.0, 2.0], 1, 0), 0, 0.0);
        agg.accumulate(update(1, vec![1.0], 1, 0), 0, 0.0);
    }
}
