//! Determinism suite for the parallel client-training executor.
//!
//! The contract of `papaya_sim::executor` is that a scenario's [`Report`] is
//! **bit-identical** at every thread count — the worker pool only moves pure
//! `ClientTrainer::train` computations off the event-loop thread, and the
//! loop consumes results in strict event order.  These tests pin that
//! contract for both aggregation strategies (FedBuff with and without its
//! optional round deadline, and synchronous rounds) on direct scenarios and
//! for fleet scenarios, clear and secure, with an injected Aggregator crash
//! (which exercises discarded speculative work: dropouts, round aborts,
//! in-transit losses, failover).
//!
//! Comparison is by [`Report::fingerprint`], a digest over every counter,
//! the full loss/utilization/participation traces, and the bit patterns of
//! the final model parameters.

use papaya_core::config::SecAggMode;
use papaya_core::{AdversarySpec, DpConfig, Malice, RobustConfig, RobustDefense, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, Report, RunLimits, Scenario, ScenarioBuilder};
use papaya_sim::Parallelism;

fn population(n: usize) -> Population {
    Population::generate(
        &PopulationConfig::default().with_size(n).with_dropout(0.1),
        23,
    )
}

/// Runs the same composition at the pre-existing sequential path,
/// `Parallelism(1)`, and `Parallelism(4)`, and asserts all three reports
/// are bit-identical.  Returns the sequential report for extra assertions.
fn assert_identical_across_thread_counts(build: impl Fn(Parallelism) -> ScenarioBuilder) -> Report {
    let run = |parallelism: Parallelism| build(parallelism).build().run();
    let sequential = run(Parallelism::sequential());
    assert_eq!(sequential.audit(), Ok(()));
    let reference = sequential.fingerprint();
    for parallelism in [Parallelism(1), Parallelism(4)] {
        let parallel = run(parallelism);
        assert_eq!(
            reference,
            parallel.fingerprint(),
            "report diverged at {parallelism:?}"
        );
        // Fingerprint equality must mean parameter equality; spot-check the
        // strongest field directly too.
        for (a, b) in sequential.tasks.iter().zip(parallel.tasks.iter()) {
            assert_eq!(
                a.final_params, b.final_params,
                "params diverged for {}",
                a.name
            );
        }
    }
    sequential
}

#[test]
fn fedbuff_direct_scenario_is_bit_identical() {
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(700))
            .task(TaskConfig::async_task("fedbuff", 48, 12))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(1.0)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(31)
    });
    assert!(report.single().server_updates() > 0);
    // Dropouts happened, so speculative work really was discarded.
    assert!(report.single().metrics.failed_participations > 0);
}

#[test]
fn sync_round_direct_scenario_is_bit_identical() {
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(700))
            // Over-selection: round-end aborts discard prefetched results.
            .task(TaskConfig::sync_task("sync", 40, 0.3))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(2.0)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(32)
    });
    assert!(report.single().metrics.aborted_by_round_end > 0);
}

#[test]
fn timed_hybrid_direct_scenario_is_bit_identical() {
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(500))
            .task(TaskConfig::timed_hybrid_task("hybrid", 24, 40, 240.0))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(2.0)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(33)
    });
    assert!(report.single().server_updates() > 0);
}

#[test]
fn secagg_direct_scenario_is_bit_identical() {
    // The whole AsyncSecAgg pipeline (cached session handshakes, ratcheted
    // masks, TSA key releases) runs on the event-loop thread in event
    // order, so a secure report — including the masked counters, TEE byte counts, and
    // the quantization-error trace the fingerprint hashes — must stay
    // bit-identical at any thread count.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(500))
            .task(
                TaskConfig::async_task("secure-fedbuff", 32, 8)
                    .with_secagg(SecAggMode::AsyncSecAgg),
            )
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(0.75)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(36)
    });
    let metrics = &report.single().metrics;
    assert!(
        metrics.secure.tsa_key_releases > 0,
        "no secure release happened"
    );
    assert_eq!(metrics.secure.tsa_key_releases, metrics.server_updates);
}

#[test]
fn dp_direct_scenario_is_bit_identical() {
    // The DP pipeline draws real noise (noise_multiplier > 0) from its own
    // seeded stream on the event-loop thread, so a noised report — clip
    // counters, per-release noise std, and the cumulative ε trace the
    // fingerprint hashes — must stay bit-identical at any thread count.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(500))
            .task(
                TaskConfig::async_task("dp-fedbuff", 32, 8)
                    .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(0.05)),
            )
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(0.75)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(37)
    });
    let metrics = &report.single().metrics;
    assert!(metrics.dp.releases > 0, "no DP release happened");
    assert_eq!(metrics.dp.releases, metrics.server_updates);
    assert!(
        metrics.dp.release_trace.iter().any(|r| r.noise_std > 0.0),
        "the determinism claim must cover actual noise"
    );
}

#[test]
fn stacked_dp_secagg_scenario_is_bit_identical() {
    // The full privacy stack — clipping, masking, TSA key releases, decode,
    // noise, accounting — all on the event-loop thread, bit-identical at
    // any Parallelism.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(400))
            .task(
                TaskConfig::async_task("dp-secagg", 24, 6)
                    .with_secagg(SecAggMode::AsyncSecAgg)
                    .with_dp(DpConfig::new(2.0, 0.5).with_sampling_rate(0.05)),
            )
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(0.5)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(38)
    });
    let metrics = &report.single().metrics;
    assert!(metrics.dp.releases > 0 && metrics.secure.tsa_key_releases > 0);
    assert_eq!(metrics.dp.releases, metrics.secure.tsa_key_releases);
    assert_eq!(metrics.dp.releases, metrics.server_updates);
}

#[test]
fn robust_defense_under_attack_is_bit_identical() {
    // Byzantine membership hashing, payload corruption, defense rejections,
    // and estimator releases all run on the event-loop thread in event
    // order, so an attacked-and-defended report — including the attack
    // trace and robustness telemetry the fingerprint hashes — must stay
    // bit-identical at any thread count.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(500))
            .task(
                TaskConfig::async_task("defended", 32, 8)
                    .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                        trim_fraction: 0.25,
                    }))
                    .with_adversary(AdversarySpec::new(0.2, Malice::SignFlip { scale: 5.0 })),
            )
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(0.75)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(39)
    });
    let metrics = &report.single().metrics;
    assert!(metrics.attacked_updates > 0, "no attack happened");
    assert!(
        metrics.robust.estimator_releases > 0,
        "the defense never engaged"
    );
}

#[test]
fn staleness_liar_with_secure_median_stack_is_bit_identical() {
    // The staleness liar retrains inline against the frozen initial model
    // on both executor paths (the speculative pool result is discarded);
    // stacked under SecAgg with a coordinate-median defense this pins the
    // trickiest executor interplay the adversary machinery has.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(400))
            .task(
                TaskConfig::async_task("liar", 24, 6)
                    .with_secagg(SecAggMode::AsyncSecAgg)
                    .with_robust(RobustConfig::new(RobustDefense::CoordinateMedian))
                    .with_adversary(AdversarySpec::new(0.25, Malice::StalenessLiar)),
            )
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(0.5)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(40)
    });
    let metrics = &report.single().metrics;
    assert!(metrics.attacked_updates > 0, "no lie was told");
    assert_eq!(metrics.robust.estimator_releases, metrics.server_updates);
    assert!(metrics.secure.masked_updates > 0);
}

#[test]
fn fleet_with_crash_is_bit_identical() {
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(1500))
            .task(TaskConfig::async_task("a", 48, 12))
            .task(TaskConfig::sync_task("s", 30, 0.3))
            .task(TaskConfig::timed_hybrid_task("h", 16, 32, 600.0))
            .fleet(FleetSpec::new(2, 2))
            .crash_at(1200.0, 0)
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(1.5)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(34)
    });
    assert_eq!(report.tasks.len(), 3);
    // The crash fired, so failover paths (buffered-update loss, lazy upload
    // failures) ran under the executor and stayed deterministic.
    assert_eq!(report.fleet.control_plane.aggregator_failures, 1);
}

#[test]
fn secure_fleet_with_crash_is_bit_identical() {
    // An Aggregator crash drops a masked buffer unreleased and invalidates
    // every SecAgg session while the pool holds training for participations
    // whose masks were planned before the crash; the re-handshakes and the
    // counters they burn must land in event order at any thread count.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(1500))
            .task(TaskConfig::async_task("a", 48, 12).with_secagg(SecAggMode::AsyncSecAgg))
            .task(TaskConfig::sync_task("s", 30, 0.3).with_secagg(SecAggMode::AsyncSecAgg))
            .fleet(FleetSpec::new(2, 2))
            .crash_at(1200.0, 0)
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(1.5)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(34)
    });
    assert_eq!(report.fleet.control_plane.aggregator_failures, 1);
    let dropped: u64 = report
        .tasks
        .iter()
        .map(|task| task.metrics.secure.buffers_dropped_unreleased)
        .sum();
    assert!(dropped >= 1, "the crash dropped no masked buffer");
}

#[test]
fn max_client_updates_stop_is_bit_identical() {
    // Stopping mid-stream leaves speculative jobs in flight at executor
    // drop; the report must not depend on their fate.
    let report = assert_identical_across_thread_counts(|parallelism| {
        Scenario::builder()
            .population(population(600))
            .task(TaskConfig::async_task("budget", 64, 8))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(20.0)
                    .with_max_client_updates(400)
                    .with_parallelism(parallelism),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(35)
    });
    assert_eq!(report.fleet.total_comm_trips, 400);
}

#[test]
fn different_seeds_produce_different_fingerprints() {
    // Guard against a degenerate fingerprint that hashes everything to the
    // same value.
    let run = |seed: u64| {
        Scenario::builder()
            .population(population(300))
            .task(TaskConfig::async_task("t", 16, 4))
            .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(seed)
            .build()
            .run()
    };
    assert_ne!(run(1).fingerprint(), run(2).fingerprint());
}
