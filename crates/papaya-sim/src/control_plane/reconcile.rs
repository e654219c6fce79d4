//! Placement reconciliation: desired state vs. actual routes.
//!
//! Desired placement is declarative — **every submitted task routed to an
//! alive Aggregator, load-balanced** — and a reconciliation pass repairs
//! whatever diverges from it, regardless of how the divergence arose
//! (total Aggregator loss, a submit with nobody alive, an operator
//! restoring an old checkpoint).  Invariants:
//!
//! 1. A task is *divergent* iff it has no route (pending) or its route
//!    points at a dead Aggregator (orphaned).  A route to a recovered —
//!    now alive — Aggregator is valid again and is never shuffled.
//! 2. Divergent tasks are re-placed in ascending task order onto the
//!    least-loaded alive Aggregator, the same policy `submit_task` uses,
//!    so identical states reconcile identically.
//! 3. The map sequence is bumped exactly once per pass that placed
//!    anything, so stale Selectors refresh; a pass that placed nothing
//!    publishes nothing.
//! 4. With no alive Aggregator there is no work a pass can do:
//!    [`needs_reconciliation`] is `false` and [`reconcile`] is a no-op
//!    until a recovery heartbeat arrives.

use crate::cluster::{AggregatorId, Coordinator, TaskId};

/// One corrective placement emitted by a reconciliation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Correction {
    /// The task that was re-placed.
    pub(crate) task: TaskId,
    /// The healthy Aggregator it now routes to.
    pub(crate) aggregator: AggregatorId,
    /// `true` when the task previously had a (dead) route — an orphan
    /// repair; `false` when it was pending with no route at all.
    pub(crate) was_placed: bool,
}

/// Tasks whose actual placement diverges from the desired state, ascending:
/// no route, or a route to an Aggregator that is not alive.
pub(crate) fn divergent_tasks(coordinator: &Coordinator) -> Vec<TaskId> {
    coordinator
        .task_ids()
        .into_iter()
        .filter(|&task| match coordinator.aggregator_of(task) {
            Some(agg) => !coordinator.is_alive(agg),
            None => true,
        })
        .collect()
}

/// Whether a reconciliation pass would change any placement right now:
/// some task is divergent *and* an alive Aggregator exists to take it.
pub(crate) fn needs_reconciliation(coordinator: &Coordinator) -> bool {
    coordinator.has_alive_aggregator() && !divergent_tasks(coordinator).is_empty()
}

/// Runs one reconciliation pass and returns the corrective placements.
pub(crate) fn reconcile(coordinator: &mut Coordinator) -> Vec<Correction> {
    let mut corrections = Vec::new();
    for task in divergent_tasks(coordinator) {
        let was_placed = coordinator.aggregator_of(task).is_some();
        if let Some(aggregator) = coordinator.place_on_least_loaded(task) {
            corrections.push(Correction {
                task,
                aggregator,
                was_placed,
            });
        }
    }
    if !corrections.is_empty() {
        coordinator.bump_sequence();
    }
    corrections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TaskSpec;

    fn spec(id: TaskId) -> TaskSpec {
        TaskSpec {
            id,
            name: format!("task-{id}"),
            concurrency: 100,
            model_size_bytes: 1_000_000,
            min_capability_tier: 0,
        }
    }

    #[test]
    fn divergence_covers_pending_and_orphaned_but_not_healthy() {
        let mut c = Coordinator::new(30.0, 3);
        c.register_aggregator(0, 0.0);
        c.submit_task(spec(0)); // healthy route
        assert!(divergent_tasks(&c).is_empty());
        c.detect_failures(100.0); // 0 dies: task 0 orphaned
        c.submit_task(spec(1)); // nobody alive: task 1 pending
        assert_eq!(divergent_tasks(&c), vec![0, 1]);
        // Dead fleet: divergent but not actionable.
        assert!(!needs_reconciliation(&c));
        c.heartbeat(0, 150.0);
        assert!(needs_reconciliation(&c));
    }

    #[test]
    fn reconcile_balances_across_alive_aggregators() {
        let mut c = Coordinator::new(30.0, 3);
        for id in 0..4 {
            c.register_aggregator(id, 0.0);
        }
        c.submit_task(spec(0)); // -> aggregator 0 (least-loaded, lowest id)
        c.submit_task(spec(1)); // -> aggregator 1
        c.detect_failures(100.0); // total loss: both owners stay dead...
        c.heartbeat(2, 150.0);
        c.heartbeat(3, 150.0); // ...and two other processes come back.
        let corrections = reconcile(&mut c);
        assert_eq!(corrections.len(), 2);
        // Equal workloads spread over both survivors, ascending task order.
        assert_eq!(corrections[0].task, 0);
        assert_eq!(corrections[1].task, 1);
        assert_ne!(corrections[0].aggregator, corrections[1].aggregator);
        for correction in &corrections {
            assert!(correction.aggregator >= 2, "placed on an alive process");
        }
        // A second pass finds nothing to do.
        assert!(reconcile(&mut c).is_empty());
    }

    #[test]
    fn empty_pass_publishes_no_map_version() {
        let mut c = Coordinator::new(30.0, 3);
        c.register_aggregator(0, 0.0);
        c.submit_task(spec(0));
        let seq = c.sequence();
        assert!(reconcile(&mut c).is_empty());
        assert_eq!(c.sequence(), seq);
    }
}
