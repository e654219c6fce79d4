//! Cross-layer integration test: a mid-run Aggregator crash in a
//! multi-tenant fleet exercises the whole failure-handling path —
//! Coordinator heartbeat detection, task reassignment (map sequence bump),
//! stale Selectors refusing to route until refreshed, buffered updates lost
//! with the dead Aggregator, and every surviving task still converging.

use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::cluster::{Coordinator, Selector, TaskSpec};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, Report, RunLimits, Scenario};

fn failover_run(seed: u64) -> Report {
    let population = Population::generate(&PopulationConfig::default().with_size(2000), seed);
    let report = Scenario::builder()
        .population(population)
        .task(TaskConfig::async_task("keyboard-lm", 64, 16))
        .task(TaskConfig::async_task("speech-kws", 32, 8).with_min_capability_tier(1))
        .task(TaskConfig::sync_task("photo-ranker", 40, 0.3))
        .task(TaskConfig::async_task("smart-reply", 24, 8))
        .fleet(FleetSpec::new(2, 3))
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        // Aggregator 0 dies mid-run, while every task is training.
        .crash_at(1800.0, 0)
        .seed(seed)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report
}

#[test]
fn aggregator_crash_reassigns_tasks_and_training_resumes() {
    let result = failover_run(42);
    let cp = &result.fleet.control_plane;

    // The Coordinator noticed exactly one dead Aggregator and moved its
    // tasks; with 2 Aggregators and 4 tasks, some were assigned to the dead
    // one at submission time.
    assert_eq!(cp.aggregator_failures, 1);
    assert!(cp.task_reassignments > 0, "no task was reassigned");

    // Reassignment bumps the assignment-map sequence past the 4 submits.
    assert!(
        cp.final_map_sequence > 4,
        "sequence {} should exceed the submission bumps",
        cp.final_map_sequence
    );

    // Between the reassignment and their next periodic refresh, stale
    // Selectors refused to route check-ins.
    assert!(
        cp.stale_route_refusals > 0,
        "stale selectors never refused a route"
    );

    // Uploads addressed to the dead Aggregator were lost in transit, and
    // the orphaned tasks' buffered updates died with the process.
    assert!(cp.lost_in_transit_updates > 0);
    let reassigned: Vec<_> = result
        .tasks
        .iter()
        .filter(|t| t.reassignments > 0)
        .collect();
    assert!(!reassigned.is_empty());

    // Every task — including the reassigned ones — ends with a lower loss
    // than it started with: training resumed after failover.
    for task in &result.tasks {
        assert!(
            task.comm_trips() > 0,
            "task {} received no client updates",
            task.name
        );
        assert!(
            task.final_loss < task.initial_loss,
            "task {} did not improve: {} -> {}",
            task.name,
            task.initial_loss,
            task.final_loss
        );
    }

    // Per-task and fleet-level metrics agree.
    assert_eq!(result.tasks.len(), 4);
    assert_eq!(
        result.fleet.total_comm_trips,
        result.tasks.iter().map(|t| t.comm_trips()).sum::<u64>()
    );
    assert!(result.fleet.mean_active_clients > 0.0);
}

#[test]
fn failover_runs_are_deterministic() {
    let a = failover_run(42);
    let b = failover_run(42);
    assert_eq!(a.fleet.control_plane, b.fleet.control_plane);
    assert_eq!(a.fleet.total_comm_trips, b.fleet.total_comm_trips);
    for (x, y) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(x.final_loss, y.final_loss);
        assert_eq!(x.reassignments, y.reassignments);
    }
    assert_eq!(a.stop_reason, b.stop_reason);
}

fn total_loss_run(seed: u64) -> Report {
    let population = Population::generate(&PopulationConfig::default().with_size(2000), seed);
    let report = Scenario::builder()
        .population(population)
        .task(TaskConfig::async_task("keyboard-lm", 64, 16))
        .task(TaskConfig::async_task("speech-kws", 32, 8).with_min_capability_tier(1))
        .task(TaskConfig::sync_task("photo-ranker", 40, 0.3))
        .task(TaskConfig::async_task("smart-reply", 24, 8))
        .fleet(FleetSpec::new(2, 3))
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        // The whole Aggregator fleet dies mid-run...
        .crash_at(1800.0, 0)
        .crash_at(2400.0, 1)
        // ...and one process comes back half an hour later.
        .recover_at(3600.0, 0)
        .seed(seed)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report
}

/// Regression test for the orphan-routing bug: after *total* Aggregator
/// loss, tasks used to keep routes to the dead process forever — the
/// failure sweep never bumped the map sequence, so the first recovery
/// heartbeat re-placed nothing and Selectors routed to a corpse for the
/// rest of the run.  With the reconciled control plane, the recovery
/// heartbeat triggers a reconcile pass that re-places every orphan.
#[test]
fn total_loss_orphans_recover_after_one_heartbeat() {
    let result = total_loss_run(42);
    let cp = &result.fleet.control_plane;

    assert_eq!(cp.aggregator_failures, 2, "both aggregators died");
    assert_eq!(cp.aggregator_recoveries, 1, "one came back");

    // The second crash orphaned every task (agg 0's tasks had already been
    // reassigned to agg 1, so all four rode the corpse), and the reconcile
    // pass triggered by the recovery heartbeat re-placed each exactly once.
    assert_eq!(cp.tasks_orphaned, 4, "total loss orphans every task");
    assert_eq!(
        cp.tasks_reconciled, cp.tasks_orphaned,
        "every orphan re-placed exactly once, within one reconcile pass"
    );

    // Orphan re-placements count as reassignments: the partial-failure
    // sweep moved some tasks, the reconcile pass moved all four again.
    assert!(
        cp.task_reassignments > 4,
        "expected partial-failure moves plus 4 orphan re-placements, got {}",
        cp.task_reassignments
    );

    // The reconcile pass bumped the map sequence (4 submissions + at least
    // one failure sweep + the reconcile bump), so stale Selectors noticed.
    assert!(
        cp.final_map_sequence > 5,
        "sequence {} should reflect the reconcile bump",
        cp.final_map_sequence
    );
    assert!(cp.stale_route_refusals > 0);

    // Training resumed after the fleet came back: every task improved and
    // kept receiving client updates.
    for task in &result.tasks {
        assert!(task.comm_trips() > 0, "task {} starved", task.name);
        assert!(
            task.final_loss < task.initial_loss,
            "task {} did not improve: {} -> {}",
            task.name,
            task.initial_loss,
            task.final_loss
        );
    }
}

#[test]
fn total_loss_runs_are_deterministic() {
    let a = total_loss_run(42);
    let b = total_loss_run(42);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn stale_selector_refuses_until_refreshed_after_failover() {
    // The control-plane primitive underneath the simulation, end to end:
    // place tasks on two Aggregators, kill one, and watch a Selector's
    // cached map go stale and recover.
    let mut coordinator = Coordinator::new(30.0, 7);
    coordinator.register_aggregator(0, 0.0);
    coordinator.register_aggregator(1, 0.0);
    let spec = |id: usize, name: &str| {
        TaskSpec::from_task_config(id, &TaskConfig::async_task(name, 100, 10))
    };
    let placed_a = coordinator
        .submit_task(spec(0, "a"))
        .aggregator()
        .expect("an aggregator is alive");
    let placed_b = coordinator
        .submit_task(spec(1, "b"))
        .aggregator()
        .expect("an aggregator is alive");
    assert_ne!(placed_a, placed_b, "workload balancing spreads the tasks");

    let mut selector = Selector::new();
    selector.refresh(&coordinator);
    let sequence_before = coordinator.sequence();
    assert!(!selector.is_stale(&coordinator));

    // Aggregator holding task 0 goes silent; the other keeps heartbeating.
    coordinator.heartbeat(placed_b, 100.0);
    let sweep = coordinator.detect_failures(100.0);
    assert_eq!(sweep.reassigned, vec![0]);
    assert!(sweep.orphaned.is_empty(), "a survivor exists: no orphans");
    assert!(coordinator.sequence() > sequence_before);

    // The Selector is stale until it refreshes; the task now routes to the
    // survivor.
    assert!(selector.is_stale(&coordinator));
    selector.refresh(&coordinator);
    assert!(!selector.is_stale(&coordinator));
    assert_eq!(coordinator.aggregator_of(0), Some(placed_b));
}
