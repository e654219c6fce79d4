//! The DP-vs-clear equivalence suite: the proof that the differential
//! privacy layer is wired through the whole Scenario pipeline without
//! changing anything it is not supposed to change.
//!
//! For each aggregation strategy, the *identical* scenario is run twice —
//! once in the clear and once with a **noiseless** DP configuration
//! (`noise_multiplier = 0`, unreachable clip bound) — and the two runs must
//! agree on every protocol counter and on the final parameters **bit for
//! bit**: a no-op DP layer must be a true no-op (clipping is skipped inside
//! the bound, the noise step is skipped at zero, and no RNG stream is
//! perturbed).  A second battery then turns the noise on and pins the
//! privacy-utility direction: eval loss degrades monotonically with the
//! noise multiplier while the accountant's ε is monotone in releases, and
//! the DP layer stacks over secure aggregation without disturbing the
//! secure run's counters or parameters.

use papaya_core::config::SecAggMode;
use papaya_core::{DpConfig, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, Report, RunLimits, Scenario};
use papaya_sim::Parallelism;

fn population(n: usize) -> Population {
    Population::generate(
        &PopulationConfig::default().with_size(n).with_dropout(0.05),
        47,
    )
}

fn run(task: TaskConfig, hours: f64, parallelism: Parallelism) -> Report {
    Scenario::builder()
        .population(population(600))
        .task(task)
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(hours)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(53)
        .build()
        .run()
}

/// A DP configuration that must change nothing: zero noise and a clip
/// bound no surrogate delta can reach.
fn noop_dp() -> DpConfig {
    DpConfig::new(1e9, 0.0)
}

/// Runs `task` in the clear and with noiseless DP and asserts the
/// equivalence contract.  Returns `(clear, dp)` for extra per-strategy
/// assertions.
fn assert_noiseless_dp_matches_clear(task: TaskConfig, hours: f64) -> (Report, Report) {
    let clear = run(task.clone(), hours, Parallelism::sequential());
    let private = run(task.with_dp(noop_dp()), hours, Parallelism::sequential());
    let (c, p) = (&clear.single().metrics, &private.single().metrics);

    // Identical trajectory: the no-op DP layer must not change a single
    // policy decision or counter.
    assert_eq!(c.comm_trips, p.comm_trips);
    assert_eq!(c.server_updates, p.server_updates);
    assert_eq!(c.aggregated_updates, p.aggregated_updates);
    assert_eq!(c.rejected_stale_updates, p.rejected_stale_updates);
    assert_eq!(c.discarded_updates, p.discarded_updates);
    assert_eq!(c.failed_participations, p.failed_participations);
    assert_eq!(c.aborted_by_round_end, p.aborted_by_round_end);
    assert_eq!(c.staleness_sum, p.staleness_sum);
    assert_eq!(c.participations, p.participations);
    assert_eq!(c.loss_curve, p.loss_curve, "evaluations diverged");
    assert!(p.server_updates > 0, "nothing was aggregated");
    assert_eq!(
        clear.events_processed, private.events_processed,
        "DP releases are telemetry, not events"
    );

    // Bit-exact parameters: zero noise is skipped, not "added as 0.0", and
    // an unreachable clip bound never rescales.
    assert_eq!(
        clear.single().final_params,
        private.single().final_params,
        "noiseless DP must be bit-exact against the clear run"
    );
    assert_eq!(clear.single().final_loss, private.single().final_loss);

    // DP bookkeeping engaged all the same: every server update was an
    // accounted release, nothing was clipped, and ε is infinite (zero
    // noise) — present in the report and hashed into the fingerprint.
    assert_eq!(p.dp.releases, p.server_updates);
    assert_eq!(p.dp.accepted_updates, p.aggregated_updates);
    assert_eq!(p.dp.clipped_updates, 0, "the unreachable bound clipped");
    assert_eq!(p.dp.release_trace.len(), p.server_updates as usize);
    assert!(p.dp.release_trace.iter().all(|r| r.noise_std == 0.0));
    assert_eq!(p.dp.cumulative_epsilon, f64::INFINITY);
    assert_eq!(c.dp.releases, 0, "clear run ran the DP pipeline");
    assert_ne!(
        clear.fingerprint(),
        private.fingerprint(),
        "the DP telemetry must be part of the fingerprint"
    );
    (clear, private)
}

#[test]
fn fedbuff_noiseless_dp_matches_clear() {
    let (_, private) =
        assert_noiseless_dp_matches_clear(TaskConfig::async_task("fedbuff", 32, 8), 1.0);
    assert!(private.single().server_updates() > 10);
}

#[test]
fn sync_round_noiseless_dp_matches_clear() {
    let (_, private) =
        assert_noiseless_dp_matches_clear(TaskConfig::sync_task("sync", 30, 0.3), 2.0);
    let m = &private.single().metrics;
    // Over-selection waste ran under the DP layer unchanged.
    assert!(m.aborted_by_round_end > 0, "no over-selection waste");
    assert!(!m.round_durations_s.is_empty(), "no round completed");
}

#[test]
fn timed_hybrid_noiseless_dp_matches_clear() {
    // Goal far above what the concurrency can deliver inside a deadline:
    // releases come from the deadline path, so DP releases ride the exact
    // deadline events (partial buffers are noised and accounted too).
    let (_, private) = assert_noiseless_dp_matches_clear(
        TaskConfig::timed_hybrid_task("hybrid", 24, 2_000, 600.0),
        2.0,
    );
    let m = &private.single().metrics;
    assert!(m.server_updates > 3, "deadline releases missing");
    assert!(
        m.aggregated_updates < 2_000 * m.server_updates,
        "every release met the goal; the deadline path went untested"
    );
}

#[test]
fn noiseless_dp_over_secagg_matches_secagg() {
    // Stacked dp(secure(fedbuff)) with zero noise vs secure(fedbuff):
    // the clipped-then-masked path must be bit-identical to the masked
    // path when clipping is the identity.
    let task = || TaskConfig::async_task("secure", 32, 8).with_secagg(SecAggMode::AsyncSecAgg);
    let secure = run(task(), 1.0, Parallelism::sequential());
    let stacked = run(task().with_dp(noop_dp()), 1.0, Parallelism::sequential());
    let (s, d) = (&secure.single().metrics, &stacked.single().metrics);
    assert_eq!(s.comm_trips, d.comm_trips);
    assert_eq!(s.server_updates, d.server_updates);
    assert_eq!(s.secure.masked_updates, d.secure.masked_updates);
    assert_eq!(s.secure.tsa_key_releases, d.secure.tsa_key_releases);
    assert_eq!(
        s.secure.quantization_error_trace,
        d.secure.quantization_error_trace
    );
    assert_eq!(
        secure.single().final_params,
        stacked.single().final_params,
        "noiseless DP over SecAgg must be bit-exact against SecAgg alone"
    );
    assert_eq!(d.dp.releases, d.server_updates);
    assert_eq!(
        d.secure.out_of_range_releases, 0,
        "masking the clipped delta must keep decode and reference aligned"
    );
}

#[test]
fn eval_loss_degrades_monotonically_with_the_noise_multiplier() {
    // The privacy-utility trade-off, in miniature: same scenario, rising
    // noise multiplier at a fixed clip bound -> final eval loss rises while
    // the claimed ε falls.  Uniform (non-example) weighting keeps the
    // buffer's weight total at ~K, so the per-release noise std
    // `C·z/weight_total` is material, and the multipliers are spaced far
    // enough apart that the ordering is deterministic for this seed.
    let run_at = |noise_multiplier: f64| {
        run(
            TaskConfig::async_task("sweep", 32, 8)
                .with_example_weighting(false)
                .with_dp(
                    DpConfig::new(2.0, noise_multiplier)
                        .with_sampling_rate(0.05)
                        .with_target_delta(1e-6),
                ),
            1.0,
            Parallelism::sequential(),
        )
    };
    let multipliers = [0.0, 0.5, 4.0];
    let reports: Vec<Report> = multipliers.iter().map(|&z| run_at(z)).collect();
    for report in &reports {
        let task = report.single();
        assert!(task.server_updates() > 10, "sweep scenario barely ran");
        assert_eq!(task.metrics.dp.releases, task.metrics.server_updates);
    }
    let losses: Vec<f64> = reports.iter().map(|r| r.single().final_loss).collect();
    for pair in losses.windows(2) {
        assert!(
            pair[0] < pair[1],
            "loss did not degrade with noise: {losses:?}"
        );
    }
    // The zero-noise run still learns.
    assert!(reports[0].single().final_loss < reports[0].single().initial_loss);
    // And ε moves the other way: infinite at zero noise, then decreasing.
    let epsilons: Vec<f64> = reports
        .iter()
        .map(|r| r.single().metrics.dp.cumulative_epsilon)
        .collect();
    assert_eq!(epsilons[0], f64::INFINITY);
    assert!(epsilons[1].is_finite());
    assert!(
        epsilons[2] < epsilons[1],
        "more noise must claim less privacy loss: {epsilons:?}"
    );
}

#[test]
fn cumulative_epsilon_trace_is_monotone_over_the_run() {
    let report = run(
        TaskConfig::async_task("trace", 32, 8)
            .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(0.05)),
        1.0,
        Parallelism::sequential(),
    );
    let trace = &report.single().metrics.dp.release_trace;
    assert!(trace.len() > 10, "too few releases to call it a trace");
    for pair in trace.windows(2) {
        assert!(pair[0].time_s <= pair[1].time_s);
        assert!(pair[0].cumulative_epsilon <= pair[1].cumulative_epsilon);
    }
    assert_eq!(
        trace.last().unwrap().cumulative_epsilon,
        report.single().metrics.dp.cumulative_epsilon
    );
}
