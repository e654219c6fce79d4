//! Behavioral conformance suite for the [`Aggregator`] protocol.
//!
//! Every aggregation strategy — FedBuff with and without a round deadline,
//! synchronous rounds, and any future addition — must satisfy the same contract the
//! runtime relies on: goal/readiness invariants, weighted-average releases
//! (including the all-zero-weight edge case), reset-after-crash semantics
//! with preserved lifetime telemetry, and no refusal: the runtime alone
//! bounds staleness and closes rounds, so every update offered is folded,
//! however stale and however full the buffer.  Each check is written once
//! against `&mut dyn Aggregator` and run against all registered implementations —
//! including a [`SecureAggregator`]-wrapped variant of each strategy (the
//! secure decorator alters the numerics only to fixed-point precision), a
//! [`DpAggregator`]-wrapped variant (noiseless, with an unreachable clip
//! bound — DP alters the numerics only when clipping or noise actually
//! bind), and the full `dp+secure+fedbuff` stack; all must pass the whole
//! suite unchanged, because neither decorator touches protocol behavior.
//!
//! The last test checks the other half of the decorator contract: every
//! pass-through hook (`goal`, `update_weight`, `next_deadline_s`,
//! `stack_telemetry`, `plan_mask_precompute`) reaches the wrapped strategy
//! through each decorator and through the full `robust(dp(secure(..)))`
//! stack.  The compiler already makes each decorator spell every hook out;
//! this checks the forwards go to the inner strategy.

use papaya_core::aggregator::{AccumulateOutcome, Aggregator, StackTelemetry};
use papaya_core::client::ClientUpdate;
use papaya_core::staleness::StalenessWeighting;
use papaya_core::{
    DpAggregator, DpConfig, DpTelemetry, FedBuffAggregator, RobustAggregator, RobustConfig,
    RobustTelemetry, SecureAggregator, SecureTelemetry, SyncRoundAggregator,
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

/// One factory per clear implementation, all configured with the same goal.
fn clear_implementations() -> Vec<(&'static str, Box<dyn Aggregator>)> {
    vec![
        (
            "fedbuff",
            Box::new(FedBuffAggregator::new(GOAL, StalenessWeighting::Constant)),
        ),
        ("sync_round", Box::new(SyncRoundAggregator::new(GOAL))),
        (
            "fedbuff_deadline",
            Box::new(
                FedBuffAggregator::new(GOAL, StalenessWeighting::Constant)
                    // Deadline far away: behave like count-only FedBuff here.
                    .with_round_deadline(1_000_000.0),
            ),
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
        let threshold = if name == "fedbuff_deadline" { 1 } else { GOAL };
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
        if let Some(secure) = agg.stack_telemetry().secure {
            assert_eq!(
                secure.masked_updates,
                (GOAL - 1) as u64,
                "{name}: lifetime telemetry must survive reset"
            );
        }

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

/// No strategy or decorator refuses an update for its age or for a met
/// goal: an update at staleness 1 000 offered to a full buffer is folded.
/// The runtime's sweeps are the only staleness bound and round close.
#[test]
fn every_update_offered_is_folded() {
    let robust = |agg| -> Box<dyn Aggregator> {
        Box::new(RobustAggregator::new(agg, RobustConfig::neutral()))
    };
    let mut all = implementations();
    for (name, agg) in clear_implementations() {
        all.push((format!("robust+{name}"), robust(agg)));
    }
    for (name, mut agg) in all {
        fill(agg.as_mut(), GOAL, 1.0);
        let outcome = agg.accumulate(update(99, 1.0, 10, 0), 1_000, 0.0);
        assert_eq!(
            outcome,
            AccumulateOutcome::Accepted { staleness: 1_000 },
            "{name}"
        );
        assert_eq!(agg.buffered(), GOAL + 1, "{name}");
    }
}

/// A strategy that answers every pass-through hook with a value no real
/// strategy or decorator produces, so a hook a decorator answers itself is
/// told apart from one that reached the wrapped strategy.
struct Probe {
    secure: SecureTelemetry,
    dp: DpTelemetry,
    robust: RobustTelemetry,
    masks_planned: Arc<AtomicUsize>,
}

impl Aggregator for Probe {
    fn accumulate(&mut self, _: ClientUpdate, _: u64, _: f64) -> AccumulateOutcome {
        AccumulateOutcome::RejectedByDefense
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
    fn next_deadline_s(&self) -> Option<f64> {
        Some(123.5)
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
    fn plan_mask_precompute(&mut self, _: usize) {
        self.masks_planned.fetch_add(1, Ordering::Relaxed);
    }
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
    // the mask-planning hook, so it stops there instead of reaching the
    // probe.
    let table: [(&str, Wrap, [bool; 3]); 4] = [
        ("secure", secure, [true, false, false]),
        ("dp", dp, [false, true, false]),
        ("robust", robust, [false, false, true]),
        ("robust+dp+secure", stack, [true, true, true]),
    ];
    for (name, wrap, [owns_secure, owns_dp, owns_robust]) in table {
        let masks_planned = Arc::new(AtomicUsize::new(0));
        let mut agg = wrap(Box::new(Probe {
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
        }));

        assert_eq!(agg.goal(), 41, "{name}");
        assert_eq!(agg.update_weight(10, 2), 32.0, "{name}");
        assert_eq!(agg.next_deadline_s(), Some(123.5), "{name}");

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

        agg.plan_mask_precompute(0);
        assert_eq!(
            masks_planned.load(Ordering::Relaxed),
            usize::from(!owns_secure),
            "{name}"
        );
    }
}
