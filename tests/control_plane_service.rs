//! The event-sourced control plane, end to end: property tests proving that
//! replaying the event log reconstructs the live Coordinator bit-for-bit
//! under arbitrary operation interleavings, that (checkpoint + log suffix)
//! equals full replay, and that a mid-run checkpoint/restore of the control
//! plane leaves a whole simulation's `Report::fingerprint` unchanged — at
//! any thread count.

use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::cluster::TaskSpec;
use papaya_sim::control_plane::ControlPlaneService;
use papaya_sim::scenario::{EvalPolicy, FleetSpec, Report, RunLimits, Scenario};
use papaya_sim::Parallelism;
use proptest::prelude::*;

fn spec(id: usize) -> TaskSpec {
    TaskSpec {
        id,
        name: format!("task-{id}"),
        concurrency: 50 + 10 * id,
        model_size_bytes: 1_000_000,
        min_capability_tier: (id % 3) as u8,
    }
}

/// One scripted operation against the service.  `(op, id, tier)` tuples come
/// from proptest; time advances by ten virtual seconds per step so heartbeat
/// leases genuinely expire under some interleavings (sweeps then orphan or
/// reassign tasks, and reconcile passes fire).
fn apply_op(service: &mut ControlPlaneService, step: usize, op: u8, id: usize, tier: u8) {
    let now = 10.0 * step as f64;
    match op % 6 {
        0 => {
            // Heartbeat a known — or unknown, hence auto-registered — id.
            service.heartbeat(id, now);
        }
        1 => {
            service.submit_task(spec(service.coordinator().task_ids().len()));
        }
        2 => {
            let tasks = service.coordinator().task_ids();
            if let Some(&task) = tasks.get(id % tasks.len().max(1)) {
                service.report_demand(task, 1 + id);
            }
        }
        3 => {
            service.assign_client(tier % 3);
        }
        4 => {
            service.detect_failures(now);
        }
        _ => {
            if service.needs_reconciliation() {
                service.reconcile(now);
            }
        }
    }
}

proptest! {
    /// Replaying the full log reconstructs the live state exactly, for any
    /// interleaving of heartbeats, submissions, demand reports, RNG-drawing
    /// client assignments, failure sweeps, and reconcile passes.
    #[test]
    fn replay_equals_live_under_any_interleaving(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0usize..5, 0u8..3), 1..80),
    ) {
        let mut service = ControlPlaneService::new(25.0, seed).retain_full_log();
        service.register_aggregator(0, 0.0);
        service.register_aggregator(1, 0.0);
        service.submit_task(spec(0));
        for (step, &(op, id, tier)) in ops.iter().enumerate() {
            apply_op(&mut service, step, op, id, tier);
        }
        let replayed = ControlPlaneService::replay(service.log());
        prop_assert_eq!(replayed.coordinator(), service.coordinator());
        prop_assert_eq!(replayed.counters(), service.counters());
    }

    /// Restoring from (checkpoint + suffix) equals both the live state and a
    /// full replay-from-genesis, wherever the checkpoint lands in the run.
    #[test]
    fn checkpoint_plus_suffix_equals_full_replay(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0usize..5, 0u8..3), 2..80),
        cut in 0usize..80,
    ) {
        let mut service = ControlPlaneService::new(25.0, seed).retain_full_log();
        service.register_aggregator(0, 0.0);
        service.register_aggregator(1, 0.0);
        service.submit_task(spec(0));
        let cut = cut % ops.len();
        for (step, &(op, id, tier)) in ops.iter().enumerate() {
            if step == cut {
                service.checkpoint_now();
            }
            apply_op(&mut service, step, op, id, tier);
        }
        let live_coordinator = service.coordinator().clone();
        let live_counters = service.counters().clone();

        let replayed = ControlPlaneService::replay(service.log());
        service.restore_from_checkpoint();

        prop_assert_eq!(service.coordinator(), &live_coordinator);
        prop_assert_eq!(service.counters(), &live_counters);
        prop_assert_eq!(replayed.coordinator(), &live_coordinator);
        prop_assert_eq!(replayed.counters(), &live_counters);
    }
}

/// A fleet scenario stressful enough to exercise the whole control plane:
/// a partial failure, then total loss, then a recovery that triggers the
/// reconcile pass.  `restore_at` additionally throws the live control-plane
/// state away mid-run and rebuilds it from (checkpoint + log suffix).
fn turbulent_run(restore_at: Option<f64>, parallelism: Parallelism) -> Report {
    let population = Population::generate(&PopulationConfig::default().with_size(1500), 7);
    let mut builder = Scenario::builder()
        .population(population)
        .task(TaskConfig::async_task("keyboard-lm", 48, 12))
        .task(TaskConfig::async_task("smart-reply", 24, 8))
        .task(TaskConfig::sync_task("photo-ranker", 30, 0.3))
        .fleet(FleetSpec::new(2, 3))
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(1.5)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .crash_at(1200.0, 0)
        .crash_at(1800.0, 1)
        // Aggregator 0 comes back — NOT the orphans' owner — so recovery
        // genuinely needs the reconciler to re-place every orphan.
        .recover_at(2700.0, 0)
        .seed(7);
    if let Some(time_s) = restore_at {
        builder = builder.restore_control_plane_at(time_s);
    }
    builder.build().run()
}

/// The tentpole acceptance check: a run whose control plane is checkpointed
/// and restored mid-flight produces a `Report::fingerprint` bit-identical
/// to the uninterrupted run — sequentially and at `Parallelism(4)`.
#[test]
fn mid_run_restore_leaves_the_fingerprint_bit_identical() {
    let uninterrupted = turbulent_run(None, Parallelism::sequential());
    let reference = uninterrupted.fingerprint();

    // The restore lands between the total loss and the recovery — the
    // nastiest window, with orphans outstanding and the fleet dead.
    let restored = turbulent_run(Some(2_000.0), Parallelism::sequential());
    assert_eq!(
        reference,
        restored.fingerprint(),
        "a control-plane restore changed the simulation"
    );
    assert_eq!(restored.fleet.control_plane.coordinator_restores, 1);
    assert_eq!(uninterrupted.fleet.control_plane.coordinator_restores, 0);

    let parallelism = Parallelism(4);
    assert_eq!(reference, turbulent_run(None, parallelism).fingerprint());
    assert_eq!(
        reference,
        turbulent_run(Some(2_000.0), parallelism).fingerprint(),
        "restore not bit-identical at {parallelism:?}"
    );
}

/// The turbulence itself is real: the run sees failures, orphans, a
/// recovery, and reconcile corrections, and still converges.
#[test]
fn turbulent_run_exercises_the_reconciler() {
    let report = turbulent_run(None, Parallelism::sequential());
    let cp = &report.fleet.control_plane;
    assert_eq!(cp.aggregator_failures, 2);
    assert_eq!(cp.aggregator_recoveries, 1);
    assert!(cp.tasks_orphaned > 0, "total loss orphaned nothing");
    assert_eq!(cp.tasks_reconciled, cp.tasks_orphaned);
    assert!(cp.heartbeats > 0);
    assert!(cp.tasks_placed >= 3 + cp.tasks_reconciled);
    assert!(cp.control_log_events > 0);
    for task in &report.tasks {
        assert!(task.comm_trips() > 0, "task {} starved", task.name);
    }
}
