//! Behavioral conformance suite for the [`Aggregator`] protocol.
//!
//! Every aggregation strategy — FedBuff, synchronous rounds, the timed
//! hybrid, and any future addition — must satisfy the same contract the
//! runtime relies on: goal/readiness invariants, weighted-average releases
//! (including the all-zero-weight edge case), reset-after-crash semantics
//! with preserved lifetime counters, and staleness rejection wherever a
//! bound is configured.  Each check is written once against
//! `&mut dyn Aggregator` and run against all registered implementations —
//! including a [`SecureAggregator`]-wrapped variant of each strategy (the
//! secure decorator alters the numerics only to fixed-point precision), a
//! [`DpAggregator`]-wrapped variant (noiseless, with an unreachable clip
//! bound — DP alters the numerics only when clipping or noise actually
//! bind), and the full `dp+secure+fedbuff` stack; all must pass the whole
//! suite unchanged, because neither decorator touches protocol behavior.
//!
//! The last test checks the other half of the decorator contract: every
//! hook the trait defaults reaches the wrapped strategy through each
//! decorator and through the full `robust(dp(secure(..)))` stack.

use papaya_core::aggregator::{AccumulateOutcome, Aggregator, AggregatorStats, StackTelemetry};
use papaya_core::client::ClientUpdate;
use papaya_core::secure::{MaskPlan, MaskScratch, PrecomputedMask};
use papaya_core::staleness::StalenessWeighting;
use papaya_core::{
    DpAggregator, DpConfig, DpTelemetry, FedBuffAggregator, RobustAggregator, RobustConfig,
    RobustTelemetry, SecureAggregator, SecureTelemetry, SyncRoundAggregator, TimedHybridAggregator,
};
use papaya_nn::params::ParamVec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const GOAL: usize = 3;

/// A DP configuration that must not perturb the conformance numerics: zero
/// noise and a clip bound far above any delta the suite folds.
fn conformance_dp() -> DpConfig {
    DpConfig::new(1e6, 0.0)
}

/// One factory per clear implementation, all configured with the same goal
/// and (where supported) the same staleness bound.
fn clear_implementations() -> Vec<(&'static str, Box<dyn Aggregator>)> {
    vec![
        (
            "fedbuff",
            Box::new(FedBuffAggregator::new(
                GOAL,
                StalenessWeighting::Constant,
                Some(5),
            )),
        ),
        ("sync_round", Box::new(SyncRoundAggregator::new(GOAL))),
        (
            "timed_hybrid",
            Box::new(TimedHybridAggregator::new(
                GOAL,
                StalenessWeighting::Constant,
                Some(5),
                1_000_000.0, // deadline far away: behave like FedBuff here
            )),
        ),
    ]
}

/// Every clear strategy plus its secure-wrapped, dp-wrapped, and
/// dp-over-secure counterparts.  The secure variants use the threshold the
/// release pattern supports (the goal for strategies that always release
/// full buffers, 1 for the deadline strategy), matching
/// `papaya_core::secure::recommended_threshold`.
fn implementations() -> Vec<(String, Box<dyn Aggregator>)> {
    let mut all: Vec<(String, Box<dyn Aggregator>)> = Vec::new();
    for (name, agg) in clear_implementations() {
        all.push((name.to_string(), agg));
    }
    for (name, agg) in clear_implementations() {
        let threshold = if name == "timed_hybrid" { 1 } else { GOAL };
        all.push((
            format!("secure+{name}"),
            Box::new(SecureAggregator::new(agg, 2, threshold, 0xC0DE)),
        ));
    }
    for (name, agg) in clear_implementations() {
        all.push((
            format!("dp+{name}"),
            Box::new(DpAggregator::new(agg, conformance_dp(), 0xD1FF)),
        ));
    }
    // The full privacy stack: clipping before masking, accounting on the
    // decoded release.
    let (name, agg) = clear_implementations().swap_remove(0);
    all.push((
        format!("dp+secure+{name}"),
        Box::new(DpAggregator::new(
            Box::new(SecureAggregator::new(agg, 2, GOAL, 0xC0DE)),
            conformance_dp(),
            0xD1FF,
        )),
    ));
    all
}

fn update(id: usize, value: f32, examples: usize, start_version: u64) -> ClientUpdate {
    ClientUpdate {
        client_id: id,
        delta: ParamVec::from_vec(vec![value, -value]),
        num_examples: examples,
        start_version,
        train_loss: 0.0,
    }
}

/// Fills the buffer with `n` fresh unit-weight updates of the given value.
fn fill(agg: &mut dyn Aggregator, n: usize, value: f32) {
    for i in 0..n {
        let outcome = agg.accumulate(update(i, value, 10, 0), 0, i as f64);
        assert!(outcome.accepted(), "fresh update {i} was not accepted");
    }
}

#[test]
fn goal_and_readiness_invariants() {
    for (name, mut agg) in implementations() {
        assert_eq!(agg.goal(), GOAL, "{name}");
        assert_eq!(agg.buffered(), 0, "{name}");
        assert!(!agg.is_ready(0.0), "{name}: empty buffer must not be ready");
        assert!(
            agg.take(0.0).is_none(),
            "{name}: take before ready must be None"
        );

        fill(agg.as_mut(), GOAL - 1, 1.0);
        assert_eq!(agg.buffered(), GOAL - 1, "{name}");
        assert!(!agg.is_ready(2.0), "{name}: one short of goal");
        assert!(agg.take(2.0).is_none(), "{name}");

        fill(agg.as_mut(), 1, 1.0);
        assert!(agg.is_ready(2.0), "{name}: goal met must be ready");
        let released = agg.take(2.0).expect("ready aggregator must release");
        assert_eq!(released.len(), 2, "{name}");
        assert_eq!(agg.buffered(), 0, "{name}: release empties the buffer");
        assert!(!agg.is_ready(2.0), "{name}: drained buffer is not ready");
        assert!(agg.take(2.0).is_none(), "{name}");
    }
}

#[test]
fn release_is_the_weighted_average() {
    for (name, mut agg) in implementations() {
        // Weights 10/10/20 over values 1, 1, 4 → (10 + 10 + 80) / 40 = 2.5.
        agg.accumulate(update(0, 1.0, 10, 0), 0, 0.0);
        agg.accumulate(update(1, 1.0, 10, 0), 0, 0.0);
        agg.accumulate(update(2, 4.0, 20, 0), 0, 0.0);
        let out = agg.take(0.0).unwrap();
        assert!(
            (out.as_slice()[0] - 2.5).abs() < 1e-6,
            "{name}: got {}",
            out.as_slice()[0]
        );
    }
}

#[test]
fn all_zero_weight_release_is_a_zero_delta() {
    for (name, mut agg) in implementations() {
        // Every update trained on zero examples: combined weight is zero, so
        // the release must be a no-op delta, not the unscaled raw sum.
        for i in 0..GOAL {
            agg.accumulate(update(i, 100.0, 0, 0), 0, 0.0);
        }
        assert!(agg.is_ready(0.0), "{name}");
        let out = agg.take(0.0).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 0.0], "{name}");

        // The aggregator is reusable with normal weights afterwards.
        fill(agg.as_mut(), GOAL, 2.0);
        let next = agg.take(GOAL as f64).unwrap();
        assert!((next.as_slice()[0] - 2.0).abs() < 1e-6, "{name}");
    }
}

#[test]
fn reset_after_crash_drops_buffer_and_preserves_stats() {
    for (name, mut agg) in implementations() {
        fill(agg.as_mut(), GOAL - 1, 3.0);
        assert_eq!(
            agg.reset(),
            GOAL - 1,
            "{name}: reset must report dropped updates"
        );
        assert_eq!(agg.buffered(), 0, "{name}");
        assert!(!agg.is_ready(1e12), "{name}: reset buffer is never ready");
        assert!(agg.take(1e12).is_none(), "{name}");
        assert_eq!(
            agg.stats().accepted,
            (GOAL - 1) as u64,
            "{name}: lifetime counters must survive reset"
        );

        // The next goal starts from an empty buffer: GOAL fresh updates are
        // required again, and the dropped ones do not leak into the average.
        fill(agg.as_mut(), GOAL - 1, 9.0);
        assert!(!agg.is_ready(0.0), "{name}: old progress leaked past reset");
        fill(agg.as_mut(), 1, 9.0);
        let out = agg.take(0.0).unwrap();
        assert!((out.as_slice()[0] - 9.0).abs() < 1e-6, "{name}");
        assert_eq!(agg.reset(), 0, "{name}: reset on empty buffer drops 0");
    }
}

#[test]
fn staleness_rejection_where_applicable() {
    for (name, mut agg) in implementations() {
        let Some(bound) = agg.max_staleness() else {
            // Strategies without a staleness bound (synchronous rounds) must
            // accept arbitrarily old start versions.
            let outcome = agg.accumulate(update(0, 1.0, 10, 0), 1_000, 0.0);
            assert!(outcome.accepted(), "{name}");
            continue;
        };
        let stale_version = bound + 1;
        let outcome = agg.accumulate(update(0, 1.0, 10, 0), stale_version, 0.0);
        assert_eq!(
            outcome,
            AccumulateOutcome::RejectedStale {
                staleness: stale_version,
                max_staleness: bound,
            },
            "{name}"
        );
        assert_eq!(agg.buffered(), 0, "{name}: rejected update must not buffer");
        assert_eq!(agg.stats().rejected_stale, 1, "{name}");

        // An update exactly at the bound is still accepted.
        let outcome = agg.accumulate(update(1, 1.0, 10, 0), bound, 0.0);
        assert_eq!(
            outcome,
            AccumulateOutcome::Accepted { staleness: bound },
            "{name}"
        );
        assert_eq!(agg.stats().max_observed_staleness, bound, "{name}");
    }
}

#[test]
fn stats_accumulate_across_releases() {
    for (name, mut agg) in implementations() {
        fill(agg.as_mut(), GOAL, 1.0);
        agg.take(0.0).unwrap();
        fill(agg.as_mut(), GOAL, 2.0);
        agg.take(0.0).unwrap();
        assert_eq!(agg.stats().accepted, 2 * GOAL as u64, "{name}");
        assert_eq!(agg.stats().mean_staleness(), 0.0, "{name}");
    }
}

/// Strategy-specific release semantics: only synchronous rounds close a
/// round on release, and only they discard over-goal arrivals.
#[test]
fn round_closing_and_over_goal_behavior_match_the_strategy() {
    for (name, mut agg) in implementations() {
        let closes = agg.closes_round_on_release();
        assert_eq!(closes, name.ends_with("sync_round"), "{name}");
        fill(agg.as_mut(), GOAL, 1.0);
        let over_goal = agg.accumulate(update(99, 50.0, 10, 0), 0, 0.0);
        if closes {
            assert_eq!(over_goal, AccumulateOutcome::Discarded, "{name}");
            assert_eq!(agg.stats().discarded, 1, "{name}");
            assert_eq!(agg.buffered(), GOAL, "{name}");
        } else {
            // Buffered strategies keep accepting past the goal.
            assert!(over_goal.accepted(), "{name}");
            assert_eq!(agg.buffered(), GOAL + 1, "{name}");
        }
    }
}

/// A strategy that answers every defaulted hook with a value no real
/// strategy or decorator produces, so a hook that stops at a decorator's
/// trait default is told apart from one that reached the wrapped strategy.
struct Probe {
    stats: AggregatorStats,
    secure: SecureTelemetry,
    dp: DpTelemetry,
    robust: RobustTelemetry,
    masks_planned: Arc<AtomicUsize>,
    masks_provided: Arc<AtomicUsize>,
}

impl Aggregator for Probe {
    fn accumulate(&mut self, _: ClientUpdate, _: u64, _: f64) -> AccumulateOutcome {
        AccumulateOutcome::Discarded
    }
    fn is_ready(&self, _: f64) -> bool {
        false
    }
    fn take(&mut self, _: f64) -> Option<ParamVec> {
        None
    }
    fn reset(&mut self) -> usize {
        0
    }
    fn goal(&self) -> usize {
        41
    }
    fn buffered(&self) -> usize {
        0
    }
    fn stats(&self) -> &AggregatorStats {
        &self.stats
    }
    fn max_staleness(&self) -> Option<u64> {
        Some(7)
    }
    fn next_deadline_s(&self) -> Option<f64> {
        Some(123.5)
    }
    fn closes_round_on_release(&self) -> bool {
        true
    }
    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        (3 * num_examples) as f64 + staleness as f64
    }
    fn stack_telemetry(&self) -> StackTelemetry<'_> {
        StackTelemetry {
            secure: Some(&self.secure),
            secure_timings: None,
            dp: Some(&self.dp),
            robust: Some(&self.robust),
        }
    }
    fn plan_mask_precompute(&mut self, _: usize) -> Option<MaskPlan> {
        self.masks_planned.fetch_add(1, Ordering::Relaxed);
        None
    }
    fn provide_precomputed_mask(&mut self, _: usize, _: PrecomputedMask) {
        self.masks_provided.fetch_add(1, Ordering::Relaxed);
    }
}

/// A real mask result to hand to `provide_precomputed_mask`.
fn donor_mask() -> PrecomputedMask {
    let (_, clear) = clear_implementations().swap_remove(0);
    SecureAggregator::new(clear, 2, GOAL, 0xC0DE)
        .plan_mask_precompute(0)
        .expect("session mode plans masks")
        .compute(&mut MaskScratch::default())
}

#[test]
fn every_defaulted_hook_reaches_the_wrapped_strategy() {
    type Wrap = fn(Box<dyn Aggregator>) -> Box<dyn Aggregator>;
    let secure: Wrap = |inner| Box::new(SecureAggregator::new(inner, 2, GOAL, 0xC0DE));
    let dp: Wrap = |inner| Box::new(DpAggregator::new(inner, conformance_dp(), 0xD1FF));
    let robust: Wrap = |inner| Box::new(RobustAggregator::new(inner, RobustConfig::neutral()));
    let stack: Wrap = |inner| {
        let secure = SecureAggregator::new(inner, 2, GOAL, 0xC0DE);
        let dp = DpAggregator::new(Box::new(secure), conformance_dp(), 0xD1FF);
        Box::new(RobustAggregator::new(Box::new(dp), RobustConfig::neutral()))
    };
    // (name, wrapper, which telemetry fields the wrapper records itself
    // as [secure, dp, robust]).  The secure layer is the one that answers
    // the mask hooks, so they stop there instead of reaching the probe.
    let table: [(&str, Wrap, [bool; 3]); 4] = [
        ("secure", secure, [true, false, false]),
        ("dp", dp, [false, true, false]),
        ("robust", robust, [false, false, true]),
        ("robust+dp+secure", stack, [true, true, true]),
    ];
    for (name, wrap, [owns_secure, owns_dp, owns_robust]) in table {
        let masks_planned = Arc::new(AtomicUsize::new(0));
        let masks_provided = Arc::new(AtomicUsize::new(0));
        let mut agg = wrap(Box::new(Probe {
            stats: AggregatorStats::default(),
            secure: SecureTelemetry {
                masked_updates: 99,
                ..SecureTelemetry::default()
            },
            dp: DpTelemetry {
                releases: 98,
                ..DpTelemetry::default()
            },
            robust: RobustTelemetry {
                estimator_releases: 97,
                ..RobustTelemetry::default()
            },
            masks_planned: Arc::clone(&masks_planned),
            masks_provided: Arc::clone(&masks_provided),
        }));

        assert_eq!(agg.goal(), 41, "{name}");
        assert_eq!(agg.update_weight(10, 2), 32.0, "{name}");
        assert_eq!(agg.max_staleness(), Some(7), "{name}");
        assert_eq!(agg.next_deadline_s(), Some(123.5), "{name}");
        assert!(agg.closes_round_on_release(), "{name}");

        // Each layer reports its own (still empty) telemetry and passes the
        // rest of the view through untouched.
        let telemetry = agg.stack_telemetry();
        let secure = telemetry.secure.expect("secure view").masked_updates;
        let dp = telemetry.dp.expect("dp view").releases;
        let robust = telemetry.robust.expect("robust view").estimator_releases;
        assert_eq!(secure, if owns_secure { 0 } else { 99 }, "{name}");
        assert_eq!(dp, if owns_dp { 0 } else { 98 }, "{name}");
        assert_eq!(robust, if owns_robust { 0 } else { 97 }, "{name}");
        assert_eq!(telemetry.secure_timings.is_some(), owns_secure, "{name}");

        let plan = agg.plan_mask_precompute(0);
        agg.provide_precomputed_mask(0, donor_mask());
        let reached_probe = usize::from(!owns_secure);
        assert_eq!(plan.is_some(), owns_secure, "{name}");
        assert_eq!(
            masks_planned.load(Ordering::Relaxed),
            reached_probe,
            "{name}"
        );
        assert_eq!(
            masks_provided.load(Ordering::Relaxed),
            reached_probe,
            "{name}"
        );
    }
}
