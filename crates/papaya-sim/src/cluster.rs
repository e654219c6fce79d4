//! The control plane: Coordinator, Selectors, and persistent Aggregators
//! (Sections 4, 6.2, 6.3 and Appendix E.4).
//!
//! This module models the *placement and routing* responsibilities of the
//! PAPAYA server components, independent of the training dynamics simulated
//! by [`crate::scenario`]:
//!
//! * the **Coordinator** assigns tasks to persistent Aggregators (balancing
//!   estimated workload), pools client demand from Aggregators, constructs
//!   per-client eligible-task lists, and randomly assigns clients to eligible
//!   tasks;
//! * **Aggregators** are long-lived and stateful; the Coordinator moves tasks
//!   only when it detects failure (missed heartbeats) or overload;
//! * **Selectors** route client requests and refuse while their view of the
//!   assignment map is stale: each holds the map sequence number it last
//!   saw, and refreshes once the Coordinator has published a newer one.

use crate::control_plane::reconcile::{self, Correction};
use papaya_core::config::TaskConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Identifier of an Aggregator instance.
pub type AggregatorId = usize;
/// Identifier of a federated task.
pub type TaskId = usize;

/// Static description of a task used for placement and eligibility.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    /// Task identifier.
    pub id: TaskId,
    /// Human-readable name.
    pub name: String,
    /// Target concurrency (drives the workload estimate and client demand).
    pub concurrency: usize,
    /// Serialized model size in bytes (drives the workload estimate).
    pub model_size_bytes: u64,
    /// Minimum device capability tier required to train this task
    /// (clients report their tier; 0 means any device can participate).
    pub min_capability_tier: u8,
}

impl TaskSpec {
    /// Bridges a training-plane [`TaskConfig`] into the placement-plane spec
    /// the Coordinator works with.
    pub fn from_task_config(id: TaskId, config: &TaskConfig) -> Self {
        TaskSpec {
            id,
            name: config.name.clone(),
            concurrency: config.concurrency,
            model_size_bytes: config.model_size_bytes,
            min_capability_tier: config.min_capability_tier,
        }
    }

    /// Estimated workload used by the Coordinator to balance Aggregators:
    /// task concurrency × model size (Section 6.3).
    pub fn estimated_workload(&self) -> u64 {
        self.concurrency as u64 * self.model_size_bytes
    }
}

/// Everything client assignment reads of one task (Section 6.2), kept in
/// one map so a check-in decides eligibility in one walk.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct TaskDemand {
    /// The spec's `min_capability_tier`; `None` until the task is
    /// submitted, when only its demand has been reported.
    min_capability_tier: Option<u8>,
    /// Demand as last reported by the task's Aggregator.
    reported: usize,
    /// Clients assigned since that report, not yet confirmed by the next.
    unconfirmed: usize,
}

impl TaskDemand {
    fn effective(self) -> usize {
        self.reported.saturating_sub(self.unconfirmed)
    }

    fn admits(self, capability_tier: u8) -> bool {
        self.min_capability_tier
            .is_some_and(|min| capability_tier >= min)
            && self.effective() > 0
    }
}

/// State the Coordinator tracks per Aggregator.
#[derive(Clone, Debug, PartialEq)]
struct AggregatorState {
    alive: bool,
    last_heartbeat_s: f64,
}

/// What a heartbeat did to the Coordinator's view of the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeartbeatOutcome {
    /// The Aggregator was known and alive; its lease was refreshed.
    Refreshed,
    /// The Aggregator was known but marked failed; it is alive again.  Its
    /// orphaned tasks are re-placed by the next reconciliation pass.
    Recovered,
    /// The Aggregator was unknown (for example, it lost its registration
    /// state in a restart).  It was registered on the spot rather than
    /// silently ignored, so it cannot become a permanent ghost.
    Registered,
}

/// Where a submitted task ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskPlacement {
    /// The task was placed on the given Aggregator immediately.
    Placed(AggregatorId),
    /// No Aggregator was alive; the task is queued without a route and will
    /// be placed by the first reconciliation pass that finds a healthy
    /// Aggregator.
    Pending,
}

impl TaskPlacement {
    /// The Aggregator the task landed on, if it was placed immediately.
    pub fn aggregator(self) -> Option<AggregatorId> {
        match self {
            TaskPlacement::Placed(id) => Some(id),
            TaskPlacement::Pending => None,
        }
    }
}

/// Result of one failure-detection sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureSweep {
    /// Aggregators newly declared failed (heartbeat overdue), ascending.
    pub failed: Vec<AggregatorId>,
    /// Tasks moved to a surviving Aggregator during this sweep, ascending.
    pub reassigned: Vec<TaskId>,
    /// Tasks left routed to a failed Aggregator because no Aggregator
    /// survived, ascending.  Their buffered updates are lost with the
    /// Aggregator; reconciliation re-places them on the first recovery.
    pub orphaned: Vec<TaskId>,
}

/// A snapshot of task→aggregator routing, tagged with a sequence number.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AssignmentMap {
    /// Monotonic version of the map.
    pub sequence: u64,
    /// Task to aggregator routing.
    pub routes: BTreeMap<TaskId, AggregatorId>,
}

/// The Coordinator: single leader responsible for task placement and client
/// assignment.
///
/// `Clone`/`PartialEq` exist for the control-plane service: a checkpoint is
/// a clone of this struct (the RNG state included), and replay fidelity is
/// proven by comparing a replayed Coordinator against the live one.
#[derive(Clone, Debug, PartialEq)]
pub struct Coordinator {
    aggregators: BTreeMap<AggregatorId, AggregatorState>,
    tasks: BTreeMap<TaskId, TaskSpec>,
    assignments: BTreeMap<TaskId, AggregatorId>,
    /// Per task: the capability floor, client demand as reported by
    /// Aggregators, and the clients assigned but not yet confirmed
    /// (Section 6.2).
    demand: BTreeMap<TaskId, TaskDemand>,
    sequence: u64,
    heartbeat_timeout_s: f64,
    rng: StdRng,
}

impl Coordinator {
    /// Creates a Coordinator; Aggregators missing heartbeats for longer than
    /// `heartbeat_timeout_s` are considered failed.
    pub fn new(heartbeat_timeout_s: f64, seed: u64) -> Self {
        Coordinator {
            aggregators: BTreeMap::new(),
            tasks: BTreeMap::new(),
            assignments: BTreeMap::new(),
            demand: BTreeMap::new(),
            sequence: 0,
            heartbeat_timeout_s,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers a (healthy) Aggregator.
    pub fn register_aggregator(&mut self, id: AggregatorId, now_s: f64) {
        self.aggregators.insert(
            id,
            AggregatorState {
                alive: true,
                last_heartbeat_s: now_s,
            },
        );
    }

    /// Records a heartbeat from an Aggregator and says what it changed.  A
    /// previously failed Aggregator becomes eligible for new work again; an
    /// unknown sender is registered rather than silently ignored.
    pub fn heartbeat(&mut self, id: AggregatorId, now_s: f64) -> HeartbeatOutcome {
        match self.aggregators.get_mut(&id) {
            Some(state) => {
                let outcome = if state.alive {
                    HeartbeatOutcome::Refreshed
                } else {
                    HeartbeatOutcome::Recovered
                };
                state.alive = true;
                state.last_heartbeat_s = now_s;
                outcome
            }
            None => {
                self.register_aggregator(id, now_s);
                HeartbeatOutcome::Registered
            }
        }
    }

    /// Submits a task.  It is placed on the least-loaded alive Aggregator,
    /// or queued as [`TaskPlacement::Pending`] (no route) until a
    /// reconciliation pass finds a healthy Aggregator to drain it onto.
    pub fn submit_task(&mut self, spec: TaskSpec) -> TaskPlacement {
        let task_id = spec.id;
        self.demand.entry(task_id).or_default().min_capability_tier =
            Some(spec.min_capability_tier);
        self.tasks.insert(task_id, spec);
        match self.least_loaded_alive_aggregator() {
            Some(target) => {
                self.assignments.insert(task_id, target);
                self.sequence += 1;
                TaskPlacement::Placed(target)
            }
            None => TaskPlacement::Pending,
        }
    }

    fn least_loaded_alive_aggregator(&self) -> Option<AggregatorId> {
        let mut loads: BTreeMap<AggregatorId, u64> = self
            .aggregators
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(&id, _)| (id, 0))
            .collect();
        for (task, agg) in &self.assignments {
            if let (Some(load), Some(spec)) = (loads.get_mut(agg), self.tasks.get(task)) {
                *load += spec.estimated_workload();
            }
        }
        loads
            .into_iter()
            .min_by_key(|&(id, load)| (load, id))
            .map(|(id, _)| id)
    }

    /// Current workload (sum of estimated task workloads) per Aggregator.
    pub fn aggregator_loads(&self) -> BTreeMap<AggregatorId, u64> {
        let mut loads: BTreeMap<AggregatorId, u64> =
            self.aggregators.keys().map(|&id| (id, 0)).collect();
        for (task, agg) in &self.assignments {
            if let (Some(load), Some(spec)) = (loads.get_mut(agg), self.tasks.get(task)) {
                *load += spec.estimated_workload();
            }
        }
        loads
    }

    /// Detects Aggregators whose heartbeats are overdue and reassigns their
    /// tasks to healthy Aggregators (Appendix E.4, "Task Execution").
    pub fn detect_failures(&mut self, now_s: f64) -> FailureSweep {
        let mut failed: Vec<AggregatorId> = Vec::new();
        for (&id, state) in self.aggregators.iter_mut() {
            if state.alive && now_s - state.last_heartbeat_s > self.heartbeat_timeout_s {
                state.alive = false;
                failed.push(id);
            }
        }
        if failed.is_empty() {
            return FailureSweep::default();
        }
        let mut reassigned = Vec::new();
        let mut still_orphaned = Vec::new();
        let mut orphaned: Vec<TaskId> = self
            .assignments
            .iter()
            .filter(|(_, agg)| failed.contains(agg))
            .map(|(&task, _)| task)
            .collect();
        // Reassign in sorted task order so identical runs place identically
        // (the sort also documents the order for future map changes).
        orphaned.sort_unstable();
        for task in orphaned {
            if let Some(target) = self.least_loaded_alive_aggregator() {
                self.assignments.insert(task, target);
                reassigned.push(task);
            } else {
                // Total loss: the route is left pointing at the failed
                // Aggregator (Selectors refuse it as dead) and the task
                // waits for reconciliation to re-place it on first recovery.
                still_orphaned.push(task);
            }
        }
        if !reassigned.is_empty() {
            self.sequence += 1;
        }
        FailureSweep {
            failed,
            reassigned,
            orphaned: still_orphaned,
        }
    }

    /// One reconciliation pass: re-places every divergent task (pending, or
    /// routed to a failed Aggregator) on the least-loaded healthy Aggregator
    /// and bumps the map sequence if anything moved, so stale Selectors
    /// refresh.  See [`crate::control_plane::reconcile`] for the invariants.
    pub(crate) fn reconcile(&mut self) -> Vec<Correction> {
        reconcile::reconcile(self)
    }

    /// Whether a reconciliation pass would change any placement right now.
    pub(crate) fn needs_reconciliation(&self) -> bool {
        reconcile::needs_reconciliation(self)
    }

    /// An Aggregator reports the current client demand of one of its tasks
    /// (Section 6.2, "tracking client demand for each task").
    pub(crate) fn report_demand(&mut self, task: TaskId, demand: usize) {
        let entry = self.demand.entry(task).or_default();
        entry.reported = demand;
        // A fresh report supersedes the unconfirmed-assignment estimate.
        entry.unconfirmed = 0;
    }

    /// Effective demand: reported demand minus clients assigned but not yet
    /// confirmed by an Aggregator report.
    pub(crate) fn effective_demand(&self, task: TaskId) -> usize {
        self.demand
            .get(&task)
            .map_or(0, |demand| demand.effective())
    }

    /// Tasks a client with the given capability tier is eligible for, in
    /// increasing id order: submitted, compatible and with positive
    /// effective demand (Section 6.2).
    pub(crate) fn eligible_tasks(&self, capability_tier: u8) -> impl Iterator<Item = TaskId> + '_ {
        self.demand
            .iter()
            .filter(move |(_, demand)| demand.admits(capability_tier))
            .map(|(&task, _)| task)
    }

    /// Randomly assigns a client to one of its eligible tasks and returns the
    /// task and the Aggregator responsible for it.  Returns `None` when no
    /// task is eligible (the client is rejected and will try later).  The
    /// draw picks by position among the eligible tasks, so the walk runs
    /// twice: once to count them, once to find the one drawn.
    pub(crate) fn assign_client(&mut self, capability_tier: u8) -> Option<(TaskId, AggregatorId)> {
        let eligible = self.eligible_tasks(capability_tier).count();
        if eligible == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..eligible);
        let task = self.eligible_tasks(capability_tier).nth(pick)?;
        let aggregator = *self.assignments.get(&task)?;
        self.demand.entry(task).or_default().unconfirmed += 1;
        Some((task, aggregator))
    }

    /// A snapshot of the current assignment map.
    pub fn assignment_map(&self) -> AssignmentMap {
        AssignmentMap {
            sequence: self.sequence,
            routes: self.assignments.clone(),
        }
    }

    /// Current sequence number of the assignment map: bumped whenever a
    /// route changes, so Selectors detect staleness by comparing numbers.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The Aggregator currently responsible for `task`, per the
    /// Coordinator's authoritative state.
    pub fn aggregator_of(&self, task: TaskId) -> Option<AggregatorId> {
        self.assignments.get(&task).copied()
    }

    /// Whether the given Aggregator is currently considered alive.
    pub fn is_alive(&self, id: AggregatorId) -> bool {
        self.aggregators.get(&id).map(|s| s.alive).unwrap_or(false)
    }

    /// Ids of all submitted tasks, ascending.
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.tasks.keys().copied().collect()
    }

    /// Whether at least one registered Aggregator is alive.
    pub fn has_alive_aggregator(&self) -> bool {
        self.aggregators.values().any(|s| s.alive)
    }

    /// Routes `task` to the least-loaded alive Aggregator without touching
    /// the sequence; the reconciler batches its bump.
    pub(crate) fn place_on_least_loaded(&mut self, task: TaskId) -> Option<AggregatorId> {
        let target = self.least_loaded_alive_aggregator()?;
        self.assignments.insert(task, target);
        Some(target)
    }

    /// Publishes a new assignment-map version.
    pub(crate) fn bump_sequence(&mut self) {
        self.sequence += 1;
    }
}

/// A Selector (Appendix E.4, "Client Routing"): it routes a client request
/// to the Aggregator the Coordinator assigned, and refuses while its view
/// of the assignment map is stale.  The view is only the map's sequence
/// number: that is all staleness needs.
#[derive(Clone, Debug, Default)]
pub struct Selector {
    /// Sequence number of the assignment map as of the last refresh.
    sequence: u64,
}

impl Selector {
    /// Creates a Selector that has seen no map yet (sequence 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Catches up with the Coordinator's current map.
    pub fn refresh(&mut self, coordinator: &Coordinator) {
        self.sequence = coordinator.sequence();
    }

    /// Returns true when this Selector's map is older than the Coordinator's.
    pub fn is_stale(&self, coordinator: &Coordinator) -> bool {
        self.sequence < coordinator.sequence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: TaskId, concurrency: usize, tier: u8) -> TaskSpec {
        TaskSpec {
            id,
            name: format!("task-{id}"),
            concurrency,
            model_size_bytes: 1_000_000,
            min_capability_tier: tier,
        }
    }

    fn coordinator_with_aggregators(n: usize) -> Coordinator {
        let mut c = Coordinator::new(30.0, 7);
        for id in 0..n {
            c.register_aggregator(id, 0.0);
        }
        c
    }

    #[test]
    fn tasks_are_balanced_by_estimated_workload() {
        let mut c = coordinator_with_aggregators(2);
        // One huge task and two small ones: the small ones should share an
        // aggregator while the huge one gets its own.
        let a_big = c.submit_task(spec(0, 10_000, 0)).aggregator().unwrap();
        let a_small1 = c.submit_task(spec(1, 100, 0)).aggregator().unwrap();
        let a_small2 = c.submit_task(spec(2, 100, 0)).aggregator().unwrap();
        assert_ne!(a_big, a_small1);
        assert_eq!(a_small1, a_small2);
        let loads = c.aggregator_loads();
        assert_eq!(loads.len(), 2);
    }

    #[test]
    fn failed_aggregator_tasks_are_reassigned() {
        let mut c = coordinator_with_aggregators(2);
        let first = c.submit_task(spec(0, 100, 0)).aggregator().unwrap();
        let second = c.submit_task(spec(1, 100, 0)).aggregator().unwrap();
        assert_ne!(first, second);
        // Aggregator `first` stops heartbeating; `second` stays healthy.
        c.heartbeat(second, 100.0);
        let sweep = c.detect_failures(100.0);
        assert_eq!(sweep.failed, vec![first]);
        assert_eq!(sweep.reassigned, vec![0]);
        assert!(sweep.orphaned.is_empty());
        assert!(!c.is_alive(first));
        assert_eq!(c.assignment_map().routes[&0], second);
    }

    #[test]
    fn recovered_aggregator_receives_new_tasks() {
        let mut c = coordinator_with_aggregators(2);
        let a0 = c.submit_task(spec(0, 100, 0)).aggregator().unwrap();
        c.heartbeat(1 - a0, 100.0);
        c.detect_failures(100.0); // a0 fails
        assert!(!c.is_alive(a0));
        // It comes back and should be preferred for the next task (lower load).
        assert_eq!(c.heartbeat(a0, 200.0), HeartbeatOutcome::Recovered);
        let placed = c.submit_task(spec(1, 100, 0));
        assert_eq!(placed, TaskPlacement::Placed(a0));
    }

    #[test]
    fn no_reassignment_while_heartbeats_are_fresh() {
        let mut c = coordinator_with_aggregators(2);
        c.submit_task(spec(0, 100, 0));
        c.heartbeat(0, 10.0);
        c.heartbeat(1, 10.0);
        assert_eq!(c.detect_failures(20.0), FailureSweep::default());
    }

    #[test]
    fn client_assignment_requires_positive_demand_and_compatibility() {
        let mut c = coordinator_with_aggregators(1);
        c.submit_task(spec(0, 100, 0));
        c.submit_task(spec(1, 100, 2)); // needs capability tier >= 2
                                        // No demand reported yet: nothing eligible.
        assert_eq!(c.assign_client(3), None);
        c.report_demand(0, 5);
        c.report_demand(1, 5);
        // A weak device is only eligible for task 0.
        assert_eq!(c.eligible_tasks(0).collect::<Vec<_>>(), vec![0]);
        // A strong device can get either.
        assert_eq!(c.eligible_tasks(3).collect::<Vec<_>>(), vec![0, 1]);
        let (task, _) = c.assign_client(0).unwrap();
        assert_eq!(task, 0);
    }

    #[test]
    fn eligibility_needs_a_submitted_compatible_task_with_demand() {
        let mut c = coordinator_with_aggregators(1);
        for (id, tier) in [(0, 0), (2, 1), (5, 0), (7, 2), (8, 0)] {
            c.submit_task(spec(id, 100, tier));
        }
        // Demand for ids that were never submitted, for some that were, and
        // none for task 0; task 5's is used up by an unconfirmed assignment.
        for (task, demand) in [(1, 4), (2, 3), (5, 1), (7, 2), (8, 0), (9, 6)] {
            c.report_demand(task, demand);
        }
        assert_eq!(c.assign_client(0), Some((5, 0)));
        for tier in 0..4 {
            let by_lookup: Vec<TaskId> = c
                .task_ids()
                .into_iter()
                .filter(|&task| c.effective_demand(task) > 0)
                .filter(|&task| tier >= [0, 0, 1, 0, 0, 0, 0, 2, 0][task])
                .collect();
            assert_eq!(c.eligible_tasks(tier).collect::<Vec<_>>(), by_lookup);
        }
        assert_eq!(c.eligible_tasks(3).collect::<Vec<_>>(), vec![2, 7]);
        // Demand reported before the task was submitted counts once it is.
        c.submit_task(spec(9, 100, 0));
        assert_eq!(c.eligible_tasks(0).collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn unconfirmed_assignments_reduce_effective_demand() {
        let mut c = coordinator_with_aggregators(1);
        c.submit_task(spec(0, 100, 0));
        c.report_demand(0, 2);
        assert!(c.assign_client(0).is_some());
        assert!(c.assign_client(0).is_some());
        // Demand 2 consumed by two unconfirmed assignments.
        assert_eq!(c.effective_demand(0), 0);
        assert_eq!(c.assign_client(0), None);
        // The Aggregator's next report resets the picture.
        c.report_demand(0, 1);
        assert!(c.assign_client(0).is_some());
    }

    #[test]
    fn random_assignment_spreads_clients_across_tasks() {
        let mut c = coordinator_with_aggregators(2);
        c.submit_task(spec(0, 100, 0));
        c.submit_task(spec(1, 100, 0));
        c.report_demand(0, 10_000);
        c.report_demand(1, 10_000);
        let mut counts = [0usize; 2];
        for _ in 0..200 {
            let (task, _) = c.assign_client(1).unwrap();
            counts[task] += 1;
        }
        assert!(counts[0] > 50 && counts[1] > 50, "{counts:?}");
    }

    #[test]
    fn selector_routes_and_detects_staleness() {
        let mut c = coordinator_with_aggregators(2);
        let placed = c.submit_task(spec(0, 100, 0)).aggregator().unwrap();
        let mut s = Selector::new();
        assert!(s.is_stale(&c), "a new Selector has seen no map");
        s.refresh(&c);
        assert!(!s.is_stale(&c));
        assert_eq!(c.aggregator_of(0), Some(placed));
        // A failure-driven reassignment bumps the sequence; the selector is
        // stale until it refreshes.
        c.heartbeat(1 - placed, 100.0);
        c.detect_failures(100.0);
        assert!(s.is_stale(&c));
        s.refresh(&c);
        assert!(!s.is_stale(&c));
        assert_eq!(c.aggregator_of(0), Some(1 - placed));
    }

    #[test]
    fn submitting_with_no_alive_aggregator_queues_pending() {
        let mut c = Coordinator::new(30.0, 1);
        assert_eq!(c.submit_task(spec(0, 10, 0)), TaskPlacement::Pending);
        assert_eq!(c.task_ids(), vec![0]);
        assert_eq!(c.aggregator_of(0), None);
        // No map version was published for a placement that did not happen.
        assert_eq!(c.sequence(), 0);
        // Divergent but not actionable: with nobody alive a pass would do no
        // work, so nothing asks for one yet.
        assert!(!c.needs_reconciliation());
        // An Aggregator shows up; reconciliation drains the pending queue.
        c.register_aggregator(0, 5.0);
        assert!(c.needs_reconciliation());
        let corrections = c.reconcile();
        assert_eq!(corrections.len(), 1);
        assert_eq!(corrections[0].task, 0);
        assert_eq!(corrections[0].aggregator, 0);
        assert!(!corrections[0].was_placed);
        assert_eq!(c.aggregator_of(0), Some(0));
        assert_eq!(c.sequence(), 1);
        assert!(!c.needs_reconciliation());
    }

    /// A lease lasts exactly `heartbeat_timeout_s`: an Aggregator last heard
    /// at 10 s with a 30 s timeout is alive at 40 s and failed one `f64`
    /// step later.  Integer-valued times keep `now - last_heartbeat` exact.
    #[test]
    fn lease_holds_at_the_timeout_and_expires_just_after() {
        let mut c = Coordinator::new(30.0, 7);
        c.register_aggregator(0, 10.0);
        assert!(c.detect_failures(40.0).failed.is_empty());
        assert!(c.is_alive(0));
        assert_eq!(c.detect_failures(40.0f64.next_up()).failed, vec![0]);
        assert!(!c.is_alive(0));
    }

    #[test]
    fn heartbeat_reports_refresh_recover_and_register() {
        let mut c = coordinator_with_aggregators(1);
        assert_eq!(c.heartbeat(0, 10.0), HeartbeatOutcome::Refreshed);
        c.detect_failures(100.0); // 0 misses its deadline
        assert!(!c.is_alive(0));
        assert_eq!(c.heartbeat(0, 150.0), HeartbeatOutcome::Recovered);
        assert!(c.is_alive(0));
        // An id the Coordinator has never seen is registered, not dropped.
        assert_eq!(c.heartbeat(9, 150.0), HeartbeatOutcome::Registered);
        assert!(c.is_alive(9));
        // And it is durable: the next heartbeat is an ordinary refresh.
        assert_eq!(c.heartbeat(9, 160.0), HeartbeatOutcome::Refreshed);
    }

    #[test]
    fn total_loss_orphans_are_replaced_on_first_recovery_heartbeat() {
        let mut c = coordinator_with_aggregators(2);
        c.submit_task(spec(0, 100, 0));
        c.submit_task(spec(1, 100, 0));
        let seq_before = c.sequence();
        // Nobody heartbeats: both Aggregators die in one sweep.
        let sweep = c.detect_failures(100.0);
        assert_eq!(sweep.failed, vec![0, 1]);
        assert!(sweep.reassigned.is_empty());
        assert_eq!(sweep.orphaned, vec![0, 1]);
        // Routes still point at corpses and no new map version exists yet;
        // with the whole fleet dead a reconcile pass has no work it can do.
        assert_eq!(c.sequence(), seq_before);
        assert!(c.aggregator_of(0).is_some());
        assert!(!c.needs_reconciliation());
        // Aggregator 1 heartbeats back; its own task's route is valid again
        // (never shuffled), and a single reconcile pass re-places the task
        // still riding the corpse and publishes a new map version.
        assert_eq!(c.heartbeat(1, 150.0), HeartbeatOutcome::Recovered);
        assert!(c.needs_reconciliation());
        let corrections = c.reconcile();
        assert_eq!(corrections.len(), 1);
        assert_eq!(corrections[0].task, 0);
        assert_eq!(corrections[0].aggregator, 1);
        assert!(corrections[0].was_placed);
        assert_eq!(c.sequence(), seq_before + 1);
        assert_eq!(c.aggregator_of(0), Some(1));
        assert_eq!(c.aggregator_of(1), Some(1));
        assert!(!c.needs_reconciliation());
    }

    #[test]
    fn reconcile_keeps_routes_to_recovered_aggregators() {
        let mut c = coordinator_with_aggregators(2);
        let placed = c.submit_task(spec(0, 100, 0)).aggregator().unwrap();
        c.detect_failures(100.0); // both die; task 0 is orphaned
        c.heartbeat(placed, 150.0);
        c.heartbeat(1 - placed, 150.0);
        // The original owner recovered, so the placement is valid again:
        // reconciliation must not shuffle it anywhere.
        assert!(!c.needs_reconciliation());
        assert!(c.reconcile().is_empty());
        assert_eq!(c.aggregator_of(0), Some(placed));
    }

    #[test]
    fn reconcile_waits_until_an_aggregator_is_alive() {
        let mut c = coordinator_with_aggregators(1);
        c.submit_task(spec(0, 100, 0));
        c.detect_failures(100.0); // total loss
                                  // Nothing alive to place on: reconciliation has no work it can do.
        assert!(!c.needs_reconciliation());
        assert!(c.reconcile().is_empty());
        assert_eq!(c.aggregator_of(0), Some(0));
    }

    #[test]
    fn stale_selector_refreshes_after_reconcile_bump() {
        let mut c = coordinator_with_aggregators(2);
        c.submit_task(spec(0, 100, 0));
        let mut s = Selector::new();
        s.refresh(&c);
        c.detect_failures(100.0); // total loss: no bump, selector still fresh
        assert!(!s.is_stale(&c));
        c.heartbeat(1, 150.0);
        c.reconcile();
        // The reconcile pass bumped the sequence, so the selector notices.
        assert!(s.is_stale(&c));
        s.refresh(&c);
        assert!(!s.is_stale(&c));
        assert_eq!(c.aggregator_of(0), Some(1));
    }

    #[test]
    fn sequence_accessor_matches_assignment_map() {
        let mut c = coordinator_with_aggregators(2);
        assert_eq!(c.sequence(), 0);
        c.submit_task(spec(0, 100, 0));
        assert_eq!(c.sequence(), 1);
        assert_eq!(c.sequence(), c.assignment_map().sequence);
        c.heartbeat(1 - c.aggregator_of(0).unwrap(), 100.0);
        c.detect_failures(100.0);
        assert_eq!(c.sequence(), 2);
        assert_eq!(c.sequence(), c.assignment_map().sequence);
    }

    #[test]
    fn task_spec_bridges_from_task_config() {
        let config = TaskConfig::async_task("keyboard", 130, 16)
            .with_model_size_bytes(5_000_000)
            .with_min_capability_tier(1);
        let spec = TaskSpec::from_task_config(7, &config);
        assert_eq!(spec.id, 7);
        assert_eq!(spec.name, "keyboard");
        assert_eq!(spec.concurrency, 130);
        assert_eq!(spec.model_size_bytes, 5_000_000);
        assert_eq!(spec.min_capability_tier, 1);
        assert_eq!(spec.estimated_workload(), 130 * 5_000_000);
    }
}
