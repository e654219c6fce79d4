//! The control plane's placement laws, checked on every sequence of
//! operations up to a fixed depth.
//!
//! `control_plane_service.rs` samples interleavings at random; this suite
//! walks all of them.  A depth-first search applies each operation of a
//! small alphabet to a clone of the service at every node, so every prefix
//! is shared and every sequence of length ≤ `depth` is visited once.  Time
//! advances ten virtual seconds per operation against a 25 s heartbeat
//! timeout, so leases expire within three steps and sweeps, orphans,
//! recoveries and reconcile passes all occur.
//!
//! After every operation:
//! - the map sequence never decreases;
//! - no route changes without a sequence bump, which is how a Selector
//!   notices;
//! - after a sweep, no task stays on a newly failed Aggregator while a
//!   survivor exists;
//! - while any Aggregator is alive, a reconcile leaves every task on a live
//!   route, and a second reconcile does nothing;
//! - `assign_client` returns the route the Coordinator holds.
//!
//! At each leaf, replaying the log from genesis equals the live state.

use papaya_sim::cluster::{AggregatorId, FailureSweep, TaskId, TaskSpec};
use papaya_sim::control_plane::ControlPlaneService;

const HEARTBEAT_TIMEOUT_S: f64 = 25.0;
const STEP_S: f64 = 10.0;

/// One operation of the alphabet.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A heartbeat from aggregator 0 or 1, or from the unknown id 2.
    Heartbeat(AggregatorId),
    /// Submit the next task.
    Submit,
    /// Every task's Aggregator reports a demand of two clients.
    ReportDemand,
    /// A tier-2 client checks in; every task admits it.
    Assign,
    /// A failure sweep.
    Sweep,
    /// A reconcile pass, when one is needed.
    Reconcile,
    /// Nothing but the passing of time.
    Idle,
    /// Checkpoint the service.
    Checkpoint,
    /// Rebuild the live state from the checkpoint and the log suffix.
    Restore,
}

const ALPHABET: [Op; 11] = [
    Op::Heartbeat(0),
    Op::Heartbeat(1),
    Op::Heartbeat(2),
    Op::Submit,
    Op::ReportDemand,
    Op::Assign,
    Op::Sweep,
    Op::Reconcile,
    Op::Idle,
    Op::Checkpoint,
    Op::Restore,
];

/// What an operation returned that a law reads.
enum Outcome {
    Assigned(Option<(TaskId, AggregatorId)>),
    Swept(FailureSweep),
    Reconciled,
    Other,
}

fn spec(id: TaskId) -> TaskSpec {
    TaskSpec {
        id,
        name: format!("task-{id}"),
        concurrency: 50 + 10 * id,
        model_size_bytes: 1_000_000,
        min_capability_tier: (id % 3) as u8,
    }
}

/// Two Aggregators registered at time 0 and one task placed.
fn genesis() -> ControlPlaneService {
    let mut service = ControlPlaneService::new(HEARTBEAT_TIMEOUT_S, 7).retain_full_log();
    service.register_aggregator(0, 0.0);
    service.register_aggregator(1, 0.0);
    service.submit_task(spec(0));
    service
}

fn apply(service: &mut ControlPlaneService, op: Op, now: f64) -> Outcome {
    match op {
        Op::Heartbeat(id) => {
            service.heartbeat(id, now);
        }
        Op::Submit => {
            service.submit_task(spec(service.coordinator().task_ids().len()));
        }
        Op::ReportDemand => {
            for task in service.coordinator().task_ids() {
                service.report_demand(task, 2);
            }
        }
        Op::Assign => return Outcome::Assigned(service.assign_client(2)),
        Op::Sweep => return Outcome::Swept(service.detect_failures(now)),
        Op::Reconcile => {
            if service.needs_reconciliation() {
                service.reconcile(now);
            }
            return Outcome::Reconciled;
        }
        Op::Idle => {}
        Op::Checkpoint => service.checkpoint_now(),
        Op::Restore => service.restore_from_checkpoint(),
    }
    Outcome::Other
}

/// Asserts every law of the module docs on the step `before` → `after`.
fn check_laws(
    before: &ControlPlaneService,
    after: &ControlPlaneService,
    outcome: &Outcome,
    now: f64,
    path: &[Op],
) {
    let (old, new) = (
        before.coordinator().assignment_map(),
        after.coordinator().assignment_map(),
    );
    assert!(new.sequence >= old.sequence, "{path:?}: sequence fell");
    assert!(
        new.sequence > old.sequence || new.routes == old.routes,
        "{path:?}: routes changed without a sequence bump"
    );
    let coordinator = after.coordinator();
    match outcome {
        Outcome::Assigned(Some((task, aggregator))) => assert_eq!(
            coordinator.aggregator_of(*task),
            Some(*aggregator),
            "{path:?}: assignment is not the held route"
        ),
        Outcome::Swept(sweep) if coordinator.has_alive_aggregator() => {
            for task in coordinator.task_ids() {
                let route = coordinator.aggregator_of(task);
                assert!(
                    !route.is_some_and(|aggregator| sweep.failed.contains(&aggregator)),
                    "{path:?}: task {task} stayed on newly failed {route:?}"
                );
            }
        }
        Outcome::Reconciled if coordinator.has_alive_aggregator() => {
            for task in coordinator.task_ids() {
                let route = coordinator.aggregator_of(task);
                assert!(
                    route.is_some_and(|aggregator| coordinator.is_alive(aggregator)),
                    "{path:?}: task {task} left on {route:?} after a reconcile"
                );
            }
            let mut again = after.clone();
            assert!(
                again.reconcile(now).is_empty(),
                "{path:?}: a second reconcile corrected something"
            );
            assert_eq!(
                again.coordinator().assignment_map(),
                new,
                "{path:?}: a second reconcile moved the map"
            );
        }
        _ => {}
    }
}

/// Visits every sequence of at most `depth` operations from [`genesis`],
/// checking the laws on each step and replay at each leaf.  Returns the
/// number of states visited after genesis.
fn explore_to(depth: usize) -> u64 {
    fn explore(service: &ControlPlaneService, path: &mut Vec<Op>, depth: usize, states: &mut u64) {
        if path.len() == depth {
            let replayed = ControlPlaneService::replay(service.log());
            assert_eq!(replayed.coordinator(), service.coordinator(), "{path:?}");
            assert_eq!(replayed.counters(), service.counters(), "{path:?}");
            return;
        }
        let now = STEP_S * (path.len() + 1) as f64;
        for op in ALPHABET {
            let mut next = service.clone();
            let outcome = apply(&mut next, op, now);
            path.push(op);
            *states += 1;
            check_laws(service, &next, &outcome, now, path);
            explore(&next, path, depth, states);
            path.pop();
        }
    }
    let mut states = 0;
    explore(
        &genesis(),
        &mut Vec::with_capacity(depth),
        depth,
        &mut states,
    );
    states
}

/// Every state up to `depth` is one sequence: `Σ 11^k` for `k = 1..=depth`.
fn state_count(depth: u32) -> u64 {
    (1..=depth).map(|k| (ALPHABET.len() as u64).pow(k)).sum()
}

#[test]
fn placement_laws_hold_on_every_sequence_to_depth_5() {
    assert_eq!(explore_to(5), state_count(5));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "21.4 M states: run with --release")]
fn placement_laws_hold_on_every_sequence_to_depth_7() {
    let states = explore_to(7);
    assert_eq!(states, state_count(7));
    println!("depth 7: {states} states");
}
