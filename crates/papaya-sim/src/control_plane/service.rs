//! The control-plane service: an event-sourced Coordinator facade.
//!
//! [`ControlPlaneService`] owns the [`Coordinator`] and is the only way the
//! simulation mutates it.  Every mutation is appended to the
//! [`EventLog`] *first* and then routed through one exhaustive apply
//! dispatcher, so the live path and the replay path are the same code:
//!
//! ```text
//! caller ──▶ record(event) ──▶ log.append(event)
//!                          └─▶ apply(coordinator, counters, event)
//! ```
//!
//! Checkpoints are taken automatically every `checkpoint_interval` log
//! events: a checkpoint is a clone of the Coordinator (RNG state included)
//! plus the counters and the log offset it was taken at.  Restoring is
//! `checkpoint + replay(log suffix)`, which reconstructs the live state
//! bit-for-bit — a run interrupted at an arbitrary control tick and resumed
//! this way produces a fingerprint identical to the uninterrupted run.
//! Once a checkpoint exists the log prefix behind it is compacted away, so
//! memory stays O(checkpoint interval) on long runs.

use crate::cluster::{
    AggregatorId, Coordinator, FailureSweep, HeartbeatOutcome, TaskId, TaskPlacement, TaskSpec,
};
use crate::control_plane::event_log::{ControlEvent, EventLog};
use crate::control_plane::reconcile::Correction;

/// Default checkpoint cadence, in log events.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 1024;

/// Service-level counters, replayed together with the Coordinator (they
/// are a pure function of the event log, so a replayed service agrees with
/// the live one on every value).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Heartbeats processed.
    pub heartbeats: u64,
    /// Heartbeats from unknown Aggregators that were registered on the spot.
    pub unknown_heartbeat_registrations: u64,
    /// Tasks placed on an Aggregator (at submit or by reconciliation).
    pub tasks_placed: u64,
    /// Task submissions queued pending because no Aggregator was alive.
    pub pending_task_submissions: u64,
    /// Tasks left orphaned by a failure sweep that had no survivor to
    /// re-place them on.
    pub tasks_orphaned: u64,
    /// Corrective placements emitted by reconciliation passes.
    pub tasks_reconciled: u64,
    /// Failure-detection sweeps run.
    pub failure_sweeps: u64,
    /// Demand reports processed.
    pub demand_reports: u64,
    /// Device check-ins processed.
    pub client_checkins: u64,
}

/// A point-in-time snapshot the service can restore from.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Absolute log offset the snapshot was taken at: replaying events
    /// `log_offset..` on top of it reproduces the present.
    pub log_offset: u64,
    /// The Coordinator as of the snapshot, RNG state included.
    pub coordinator: Coordinator,
    /// The counters as of the snapshot.
    pub counters: ServiceCounters,
}

/// Per-Aggregator line of a [`FleetStatus`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregatorStatus {
    /// The Aggregator.
    pub id: AggregatorId,
    /// Whether the Coordinator currently considers it alive.
    pub alive: bool,
    /// Sum of estimated workloads of the tasks routed to it.
    pub load: u64,
    /// Tasks routed to it, ascending.
    pub tasks: Vec<TaskId>,
}

/// An operator-facing snapshot of the control plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetStatus {
    /// One line per registered Aggregator, ascending by id.
    pub aggregators: Vec<AggregatorStatus>,
    /// Tasks submitted but currently without a route, ascending.
    pub pending_tasks: Vec<TaskId>,
    /// Current assignment-map sequence number.
    pub map_sequence: u64,
    /// Absolute event-log length.
    pub log_events: u64,
    /// Log events appended since the last checkpoint.
    pub checkpoint_age_events: u64,
}

/// What applying one [`ControlEvent`] produced.
enum ApplyOutcome {
    Unit,
    Heartbeat(HeartbeatOutcome),
    Placement(TaskPlacement),
    Assignment(Option<(TaskId, AggregatorId)>),
    Sweep(FailureSweep),
    Corrections(Vec<Correction>),
}

/// The event-sourced control-plane service.
#[derive(Clone, Debug)]
pub struct ControlPlaneService {
    coordinator: Coordinator,
    counters: ServiceCounters,
    log: EventLog,
    checkpoint: Checkpoint,
    checkpoint_interval: u64,
    compact_on_checkpoint: bool,
    checkpoints_taken: u64,
    restores: u64,
}

impl ControlPlaneService {
    /// Creates a service with a fresh Coordinator; the log opens with
    /// [`ControlEvent::Init`] so a full replay is self-contained.
    pub fn new(heartbeat_timeout_s: f64, seed: u64) -> Self {
        let coordinator = Coordinator::new(heartbeat_timeout_s, seed);
        let mut service = ControlPlaneService {
            checkpoint: Checkpoint {
                log_offset: 0,
                coordinator: coordinator.clone(),
                counters: ServiceCounters::default(),
            },
            coordinator,
            counters: ServiceCounters::default(),
            log: EventLog::new(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            compact_on_checkpoint: true,
            checkpoints_taken: 0,
            restores: 0,
        };
        service.record(ControlEvent::Init {
            heartbeat_timeout_s,
            seed,
        });
        service
    }

    /// Disables log compaction so the full log stays replayable from
    /// genesis (used by the replay property tests).
    pub fn retain_full_log(mut self) -> Self {
        self.compact_on_checkpoint = false;
        self
    }

    /// Overrides the automatic checkpoint cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every_events` is zero.
    pub fn with_checkpoint_interval(mut self, every_events: u64) -> Self {
        assert!(every_events > 0, "checkpoint interval must be positive");
        self.checkpoint_interval = every_events;
        self
    }

    /// Read-only view of the Coordinator (Selector refresh, demand reads).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The replayed service counters.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The latest checkpoint.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// Log events appended since the latest checkpoint.
    pub fn checkpoint_age_events(&self) -> u64 {
        self.log.len() - self.checkpoint.log_offset
    }

    /// Checkpoints taken so far (operational, not part of replayed state).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Restores performed so far (operational, not part of replayed state).
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Registers a (healthy) Aggregator.
    pub fn register_aggregator(&mut self, id: AggregatorId, now_s: f64) {
        self.record(ControlEvent::AggregatorRegistered { id, time_s: now_s });
    }

    /// Records a heartbeat; unknown senders are registered, not dropped.
    pub fn heartbeat(&mut self, id: AggregatorId, now_s: f64) -> HeartbeatOutcome {
        match self.record(ControlEvent::Heartbeat { id, time_s: now_s }) {
            ApplyOutcome::Heartbeat(outcome) => outcome,
            _ => unreachable!("apply(Heartbeat) yields Heartbeat"),
        }
    }

    /// Submits a task for placement (or pending, with nobody alive).
    pub fn submit_task(&mut self, spec: TaskSpec) -> TaskPlacement {
        match self.record(ControlEvent::TaskSubmitted { spec }) {
            ApplyOutcome::Placement(placement) => placement,
            _ => unreachable!("apply(TaskSubmitted) yields Placement"),
        }
    }

    /// Records an Aggregator's demand report for one task.
    pub fn report_demand(&mut self, task: TaskId, demand: usize) {
        self.record(ControlEvent::DemandReported { task, demand });
    }

    /// Assigns a checking-in device to a random eligible task.
    pub fn assign_client(&mut self, capability_tier: u8) -> Option<(TaskId, AggregatorId)> {
        match self.record(ControlEvent::ClientCheckIn { capability_tier }) {
            ApplyOutcome::Assignment(assignment) => assignment,
            _ => unreachable!("apply(ClientCheckIn) yields Assignment"),
        }
    }

    /// Runs a failure-detection sweep.
    pub fn detect_failures(&mut self, now_s: f64) -> FailureSweep {
        match self.record(ControlEvent::FailureSweep { time_s: now_s }) {
            ApplyOutcome::Sweep(sweep) => sweep,
            _ => unreachable!("apply(FailureSweep) yields Sweep"),
        }
    }

    /// Runs one reconciliation pass.
    pub fn reconcile(&mut self, now_s: f64) -> Vec<Correction> {
        match self.record(ControlEvent::Reconcile { time_s: now_s }) {
            ApplyOutcome::Corrections(corrections) => corrections,
            _ => unreachable!("apply(Reconcile) yields Corrections"),
        }
    }

    /// Whether a reconciliation pass would change any placement right now.
    /// Read-only: callers use it to decide whether to schedule a pass, so a
    /// probe must not pollute the log.
    pub fn needs_reconciliation(&self) -> bool {
        self.coordinator.needs_reconciliation()
    }

    /// Takes a checkpoint of the present state and (by default) compacts
    /// the log prefix behind it.
    pub fn checkpoint_now(&mut self) {
        self.checkpoint = Checkpoint {
            log_offset: self.log.len(),
            coordinator: self.coordinator.clone(),
            counters: self.counters.clone(),
        };
        self.checkpoints_taken += 1;
        if self.compact_on_checkpoint {
            self.log.compact_to(self.checkpoint.log_offset);
        }
    }

    /// Rebuilds the live state from (latest checkpoint + log suffix) and
    /// swaps it in.  Because replay is deterministic this is an identity on
    /// an uncorrupted service — which is exactly what the mid-run
    /// checkpoint/resume fingerprint test proves end to end.
    pub fn restore_from_checkpoint(&mut self) {
        let mut coordinator = self.checkpoint.coordinator.clone();
        let mut counters = self.checkpoint.counters.clone();
        for event in self.log.iter_from(self.checkpoint.log_offset) {
            Self::apply(&mut coordinator, &mut counters, event);
        }
        self.coordinator = coordinator;
        self.counters = counters;
        self.restores += 1;
    }

    /// Reconstructs a service purely from a full (uncompacted) log.
    ///
    /// # Panics
    ///
    /// Panics if the log was compacted — replay-from-genesis needs every
    /// event.
    pub fn replay(log: &EventLog) -> Self {
        assert_eq!(log.base_offset(), 0, "full replay needs an uncompacted log");
        // Placeholder state; the leading `Init` event rebuilds it.
        let mut coordinator = Coordinator::new(0.0, 0);
        let mut counters = ServiceCounters::default();
        for event in log.iter_from(0) {
            Self::apply(&mut coordinator, &mut counters, event);
        }
        ControlPlaneService {
            checkpoint: Checkpoint {
                log_offset: log.len(),
                coordinator: coordinator.clone(),
                counters: counters.clone(),
            },
            coordinator,
            counters,
            log: log.clone(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            compact_on_checkpoint: false,
            checkpoints_taken: 0,
            restores: 0,
        }
    }

    /// Appends the event to the log, applies it, and auto-checkpoints when
    /// the log has outgrown the checkpoint cadence.
    fn record(&mut self, event: ControlEvent) -> ApplyOutcome {
        self.log.append(event.clone());
        let outcome = Self::apply(&mut self.coordinator, &mut self.counters, &event);
        if self.checkpoint_age_events() >= self.checkpoint_interval {
            self.checkpoint_now();
        }
        outcome
    }

    /// The single dispatcher every logged event goes through, live or
    /// replayed.  Exhaustive on purpose: papaya-lint's `event-dispatch`
    /// rule checks that every `ControlEvent` variant is named here.
    fn apply(
        coordinator: &mut Coordinator,
        counters: &mut ServiceCounters,
        control_event: &ControlEvent,
    ) -> ApplyOutcome {
        match control_event {
            ControlEvent::Init {
                heartbeat_timeout_s,
                seed,
            } => {
                *coordinator = Coordinator::new(*heartbeat_timeout_s, *seed);
                *counters = ServiceCounters::default();
                ApplyOutcome::Unit
            }
            ControlEvent::AggregatorRegistered { id, time_s } => {
                coordinator.register_aggregator(*id, *time_s);
                ApplyOutcome::Unit
            }
            ControlEvent::Heartbeat { id, time_s } => {
                let outcome = coordinator.heartbeat(*id, *time_s);
                counters.heartbeats += 1;
                if outcome == HeartbeatOutcome::Registered {
                    counters.unknown_heartbeat_registrations += 1;
                }
                ApplyOutcome::Heartbeat(outcome)
            }
            ControlEvent::TaskSubmitted { spec } => {
                let placement = coordinator.submit_task(spec.clone());
                match placement {
                    TaskPlacement::Placed(_) => counters.tasks_placed += 1,
                    TaskPlacement::Pending => counters.pending_task_submissions += 1,
                }
                ApplyOutcome::Placement(placement)
            }
            ControlEvent::DemandReported { task, demand } => {
                coordinator.report_demand(*task, *demand);
                counters.demand_reports += 1;
                ApplyOutcome::Unit
            }
            ControlEvent::ClientCheckIn { capability_tier } => {
                let assignment = coordinator.assign_client(*capability_tier);
                counters.client_checkins += 1;
                ApplyOutcome::Assignment(assignment)
            }
            ControlEvent::FailureSweep { time_s } => {
                let sweep = coordinator.detect_failures(*time_s);
                counters.failure_sweeps += 1;
                counters.tasks_orphaned += sweep.orphaned.len() as u64;
                ApplyOutcome::Sweep(sweep)
            }
            ControlEvent::Reconcile { time_s: _ } => {
                let corrections = coordinator.reconcile();
                counters.tasks_reconciled += corrections.len() as u64;
                counters.tasks_placed += corrections.len() as u64;
                ApplyOutcome::Corrections(corrections)
            }
        }
    }

    /// Operator-facing snapshot of the fleet.
    pub fn fleet_status(&self) -> FleetStatus {
        let routes = self.coordinator.assignment_map().routes;
        let loads = self.coordinator.aggregator_loads();
        let aggregators = self
            .coordinator
            .aggregator_ids()
            .into_iter()
            .map(|id| AggregatorStatus {
                id,
                alive: self.coordinator.is_alive(id),
                load: loads.get(&id).copied().unwrap_or(0),
                tasks: routes
                    .iter()
                    .filter(|(_, &agg)| agg == id)
                    .map(|(&task, _)| task)
                    .collect(),
            })
            .collect();
        FleetStatus {
            aggregators,
            pending_tasks: self.coordinator.pending_tasks(),
            map_sequence: self.coordinator.sequence(),
            log_events: self.log.len(),
            checkpoint_age_events: self.checkpoint_age_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: TaskId) -> TaskSpec {
        TaskSpec {
            id,
            name: format!("task-{id}"),
            concurrency: 100,
            model_size_bytes: 1_000_000,
            min_capability_tier: 0,
        }
    }

    /// A busy scripted session touching every event kind, including RNG
    /// draws (client assignments) and a total-loss/recovery cycle.
    fn scripted_service() -> ControlPlaneService {
        let mut service = ControlPlaneService::new(25.0, 42).retain_full_log();
        for id in 0..3 {
            service.register_aggregator(id, 0.0);
        }
        for task in 0..4 {
            service.submit_task(spec(task));
        }
        for step in 0..20 {
            let now = 10.0 * (step + 1) as f64;
            for id in 0..3 {
                // Steps 0..5: everyone healthy.  Steps 5..12: nobody
                // heartbeats — total loss.  Steps 12..: only 1 comes back.
                if step < 5 || (step >= 12 && id == 1) {
                    service.heartbeat(id, now);
                }
            }
            service.detect_failures(now);
            for task in 0..4 {
                service.report_demand(task, 3);
            }
            for tier in [0u8, 1, 2] {
                service.assign_client(tier);
            }
            if service.needs_reconciliation() {
                service.reconcile(now);
            }
        }
        service
    }

    #[test]
    fn replay_reproduces_live_state() {
        let live = scripted_service();
        let replayed = ControlPlaneService::replay(live.log());
        assert_eq!(replayed.coordinator(), live.coordinator());
        assert_eq!(replayed.counters(), live.counters());
        // The reconstruction agrees on derived views too — modulo
        // checkpoint bookkeeping, which is operational state: a replayed
        // process owes no checkpoint cadence to the original one.
        let mut replayed_status = replayed.fleet_status();
        let mut live_status = live.fleet_status();
        replayed_status.checkpoint_age_events = 0;
        live_status.checkpoint_age_events = 0;
        assert_eq!(replayed_status, live_status);
    }

    #[test]
    fn restore_from_checkpoint_is_an_identity() {
        let mut service = scripted_service();
        let coordinator_before = service.coordinator().clone();
        let counters_before = service.counters().clone();
        service.checkpoint_now();
        // Keep going past the checkpoint so there is a real suffix.
        service.heartbeat(1, 1_000.0);
        service.report_demand(0, 9);
        service.assign_client(2);
        let coordinator_live = service.coordinator().clone();
        let counters_live = service.counters().clone();
        service.restore_from_checkpoint();
        assert_eq!(service.coordinator(), &coordinator_live);
        assert_eq!(service.counters(), &counters_live);
        assert_eq!(service.restores(), 1);
        assert_ne!(service.coordinator(), &coordinator_before);
        assert_ne!(service.counters(), &counters_before);
    }

    #[test]
    fn compaction_keeps_restore_working_with_bounded_memory() {
        let mut service = ControlPlaneService::new(25.0, 7).with_checkpoint_interval(16);
        service.register_aggregator(0, 0.0);
        service.submit_task(spec(0));
        for step in 0..200 {
            let now = step as f64;
            service.heartbeat(0, now);
            service.report_demand(0, 2);
            service.assign_client(0);
        }
        // The compacted log never holds more than one cadence worth.
        assert!(service.log().retained() <= 16);
        assert!(service.checkpoints_taken() > 1);
        let live = service.coordinator().clone();
        service.restore_from_checkpoint();
        assert_eq!(service.coordinator(), &live);
    }

    #[test]
    fn fleet_status_reports_routes_and_pending() {
        let mut service = ControlPlaneService::new(25.0, 1);
        service.register_aggregator(0, 0.0);
        service.register_aggregator(1, 0.0);
        service.submit_task(spec(0));
        service.submit_task(spec(1));
        let status = service.fleet_status();
        assert_eq!(status.aggregators.len(), 2);
        assert!(status.aggregators.iter().all(|a| a.alive));
        assert_eq!(
            status
                .aggregators
                .iter()
                .map(|a| a.tasks.len())
                .sum::<usize>(),
            2
        );
        assert!(status.pending_tasks.is_empty());
        assert_eq!(status.map_sequence, 2);
        // Kill the fleet: routes stay (orphaned), a fresh submit parks.
        service.detect_failures(1_000.0);
        service.submit_task(spec(2));
        let status = service.fleet_status();
        assert!(status.aggregators.iter().all(|a| !a.alive));
        assert_eq!(status.pending_tasks, vec![2]);
    }
}
