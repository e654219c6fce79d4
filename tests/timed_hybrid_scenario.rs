//! Cross-crate integration test for FedBuff's optional round deadline (the
//! timed hybrid: a FedBuff buffer also released a fixed time after it
//! opens) end to end through the unified `Scenario` API, in both the direct
//! and the control-plane fleet paths — without the runtime ever branching
//! on a training mode.

use papaya_core::TaskConfig;
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario, StopReason};

/// A straggler regime where pure FedBuff stalls: the aggregation goal is far
/// above what the concurrency can deliver, so only the deadline can release
/// buffers.  The hybrid keeps the server stepping; count-only FedBuff never
/// steps once.
#[test]
fn deadline_releases_rescue_an_unreachable_goal() {
    let run = |task: TaskConfig| {
        let report = Scenario::builder()
            .population(papaya_data::population::Population::generate(
                &papaya_data::population::PopulationConfig::default().with_size(500),
                19,
            ))
            .task(task)
            .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(19)
            .build()
            .run();
        assert_eq!(report.audit(), Ok(()));
        report
    };

    let fedbuff = run(TaskConfig::async_task("stalled", 24, 10_000));
    assert_eq!(
        fedbuff.tasks[0].server_updates(),
        0,
        "count-only FedBuff should stall with an unreachable goal"
    );

    let hybrid = run(TaskConfig::timed_hybrid_task("rescued", 24, 10_000, 300.0));
    let task = &hybrid.tasks[0];
    assert!(
        task.server_updates() > 5,
        "deadline releases missing: {} server updates",
        task.server_updates()
    );
    assert!(
        task.final_loss < task.initial_loss,
        "hybrid did not train: {} -> {}",
        task.initial_loss,
        task.final_loss
    );
    // Deadline releases never close a round: no round-end aborts.
    assert_eq!(task.metrics.aborted_by_round_end, 0);
    assert_eq!(hybrid.stop_reason, StopReason::MaxVirtualTime);
}

/// With a reachable goal and a generous deadline, the hybrid behaves like
/// FedBuff (count releases fire first) and converges comparably.
#[test]
fn hybrid_matches_fedbuff_when_the_goal_is_reachable() {
    let population = |seed| {
        papaya_data::population::Population::generate(
            &papaya_data::population::PopulationConfig::default().with_size(800),
            seed,
        )
    };
    let run = |task: TaskConfig| {
        let report = Scenario::builder()
            .population(population(23))
            .task(task)
            .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(23)
            .build()
            .run();
        assert_eq!(report.audit(), Ok(()));
        report.into_single()
    };
    let fedbuff = run(TaskConfig::async_task("fedbuff", 64, 16));
    // A deadline far above the natural buffer-fill time never fires.
    let hybrid = run(TaskConfig::timed_hybrid_task("hybrid", 64, 16, 1e6));
    assert_eq!(fedbuff.server_updates(), hybrid.server_updates());
    assert_eq!(fedbuff.comm_trips(), hybrid.comm_trips());
    assert_eq!(fedbuff.final_loss, hybrid.final_loss);
}

/// The hybrid strategy also works behind the control plane, surviving an
/// Aggregator crash (its open buffer dies with the process, the deadline
/// window restarts after reassignment, and training resumes).
#[test]
fn hybrid_task_survives_failover_in_a_fleet() {
    let report = Scenario::builder()
        .population(papaya_data::population::Population::generate(
            &papaya_data::population::PopulationConfig::default().with_size(1500),
            29,
        ))
        .task(TaskConfig::async_task("kbd", 48, 12))
        .task(TaskConfig::timed_hybrid_task("hybrid", 24, 5_000, 240.0))
        .fleet(FleetSpec::new(2, 2))
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .crash_at(1800.0, 0)
        .seed(29)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    assert_eq!(report.fleet.control_plane.aggregator_failures, 1);
    let hybrid = &report.tasks[1];
    assert!(
        hybrid.server_updates() > 3,
        "hybrid produced {} server updates",
        hybrid.server_updates()
    );
    assert!(hybrid.final_loss < hybrid.initial_loss);
    for task in &report.tasks {
        assert!(
            task.final_loss < task.initial_loss,
            "task {} did not improve after failover",
            task.name
        );
    }
}
