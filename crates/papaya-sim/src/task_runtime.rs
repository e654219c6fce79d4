//! Per-task server-side training state.
//!
//! A [`TaskRuntime`] owns everything one federated task needs server-side:
//! the versioned model and its optimizer, the aggregation stack (an
//! [`AggregationStack`], so the runtime never branches on the strategy or
//! its decorators), the download snapshot, the in-flight participation map,
//! round bookkeeping, and a per-task [`MetricsCollector`].  It exposes a narrow
//! API — [`begin_participation`](TaskRuntime::begin_participation),
//! [`offer_update`](TaskRuntime::offer_update),
//! [`client_failed`](TaskRuntime::client_failed),
//! [`demand`](TaskRuntime::demand), [`evaluate`](TaskRuntime::evaluate),
//! [`poll`](TaskRuntime::poll) —
//! so the same runtime is driven by the [`crate::scenario::Scenario`] run
//! loop with or without a control plane.
//!
//! Participation policy comes from the task's [`TrainingMode`], as client
//! demand does, and only the runtime applies it, after every release: a
//! synchronous release closes the round and aborts its stragglers
//! (Appendix E.3); an asynchronous one aborts in-flight clients staler than
//! the mode's bound (Appendix E.1).  So the strategy folds every update.
//!
//! The runtime is deliberately ignorant of *who* participates and *when*:
//! client selection, event scheduling, dropouts, and timeouts belong to the
//! driving simulation.  On an Aggregator failure the driver calls
//! [`drop_buffered_updates`](TaskRuntime::drop_buffered_updates) —
//! reproducing the paper's fault-tolerance semantics (buffered state is
//! lost with the Aggregator; training resumes after reassignment).
//! In-flight participations fail lazily, when their uploads arrive: the
//! upload is addressed to the dead Aggregator and the driver reports it
//! through [`client_failed`](TaskRuntime::client_failed).

use crate::events::SimTime;
use crate::executor::{Executor, TrainJob};
use crate::id_table::IdTable;
pub(crate) use crate::id_table::InFlightSlot;
use crate::metrics::{MetricsCollector, ParticipationRecord};
use papaya_core::aggregator::{AccumulateOutcome, AggregationStack};
use papaya_core::client::{participation_seed, ClientTrainer, ClientUpdate};
use papaya_core::config::{TaskConfig, TrainingMode};
use papaya_core::model::ServerModel;
use papaya_core::server_opt::{FedAdam, FedAvg, FedSgd, ServerOptimizer};
use papaya_nn::params::ParamVec;
use std::sync::Arc;

/// Which server optimizer a runtime applies to aggregated deltas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServerOptimizerKind {
    /// `model += delta`.
    FedAvg,
    /// `model += lr * delta`.
    FedSgd {
        /// Server learning rate.
        learning_rate: f32,
    },
    /// Adam on the server with the delta as pseudo-gradient.
    FedAdam {
        /// Server learning rate.
        learning_rate: f32,
        /// First-moment decay.
        beta1: f32,
    },
}

impl ServerOptimizerKind {
    fn build(&self) -> Box<dyn ServerOptimizer> {
        match *self {
            ServerOptimizerKind::FedAvg => Box::new(FedAvg),
            ServerOptimizerKind::FedSgd { learning_rate } => Box::new(FedSgd::new(learning_rate)),
            ServerOptimizerKind::FedAdam {
                learning_rate,
                beta1,
            } => Box::new(FedAdam::new(learning_rate, beta1)),
        }
    }
}

/// A client currently participating in this task.
#[derive(Clone, Debug)]
struct InFlight {
    client_id: usize,
    start_version: u64,
    start_params: Arc<ParamVec>,
    execution_time_s: f64,
}

/// A participation released by the runtime (stale abort or round end); the
/// driver must return the device to its selection pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FreedClient {
    /// The participation that ended.
    pub(crate) participation_id: u64,
    /// The device that is free again.
    pub(crate) client_id: usize,
}

/// What happened when an update was offered to the runtime.
#[derive(Clone, Debug, Default)]
pub(crate) struct UpdateOutcome {
    /// A synchronous round closed.
    pub(crate) round_ended: bool,
    /// Participations aborted as a consequence (staleness bound or round
    /// end), in increasing `participation_id` order; their devices are
    /// free again.
    pub(crate) freed: Vec<FreedClient>,
}

/// Server-side state of one federated task.
pub struct TaskRuntime {
    config: TaskConfig,
    seed: u64,
    target_loss: Option<f64>,
    trainer: Arc<dyn ClientTrainer>,
    model: ServerModel,
    snapshot: Arc<ParamVec>,
    /// The initial global parameters, frozen at construction.  Only the
    /// staleness-liar adversary reads this: the liar trains against the
    /// stale initial model while claiming its update is fresh.
    initial_params: Arc<ParamVec>,
    optimizer: Box<dyn ServerOptimizer>,
    aggregator: AggregationStack,
    in_flight: IdTable<InFlight>,
    /// Parallel training pool, shared across the scenario's runtimes.
    /// `None` is the sequential path: training runs inline in
    /// [`offer_update`](TaskRuntime::offer_update).
    executor: Option<Arc<Executor>>,
    completed_this_round: usize,
    round_start_time: SimTime,
    eval_ids: Vec<usize>,
    metrics: MetricsCollector,
    hours_to_target: Option<f64>,
    final_loss: f64,
}

impl TaskRuntime {
    /// Creates the runtime for one task.  `eval_ids` is the fixed evaluation
    /// sample (chosen by the driver from its population) and `seed` salts the
    /// per-participation training randomness.  The aggregation stack is
    /// built from the task's config by [`AggregationStack::for_task`].
    pub(crate) fn new(
        config: TaskConfig,
        server_optimizer: ServerOptimizerKind,
        trainer: Arc<dyn ClientTrainer>,
        eval_ids: Vec<usize>,
        seed: u64,
        target_loss: Option<f64>,
    ) -> Self {
        let aggregator = AggregationStack::for_task(&config, trainer.parameter_count(), seed);
        let model = ServerModel::new(trainer.initial_parameters());
        let snapshot = Arc::new(model.snapshot());
        let initial_params = Arc::clone(&snapshot);
        let optimizer = server_optimizer.build();
        TaskRuntime {
            config,
            seed,
            target_loss,
            trainer,
            model,
            snapshot,
            initial_params,
            optimizer,
            aggregator,
            in_flight: IdTable::new(),
            executor: None,
            completed_this_round: 0,
            round_start_time: 0.0,
            eval_ids,
            metrics: MetricsCollector::new(),
            hours_to_target: None,
            final_loss: f64::INFINITY,
        }
    }

    /// The task configuration.
    pub(crate) fn config(&self) -> &TaskConfig {
        &self.config
    }

    /// Current client demand per Appendix E.3 (concurrency minus active,
    /// minus this round's completions in synchronous mode).
    pub(crate) fn demand(&self) -> usize {
        self.config
            .client_demand(self.in_flight.len(), self.completed_this_round)
    }

    /// The per-task metrics collected so far.
    pub(crate) fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// Registers a selected client: it downloads the current snapshot and
    /// starts training.  The driver owns participation-id allocation and
    /// hands ids out in increasing order: a later participation never has
    /// a smaller id, which is what lets the staleness sweep stop at the
    /// first participation that is fresh enough.
    ///
    /// Returns where the participation is held.  Passing the slot back to
    /// [`prefetch_training`](TaskRuntime::prefetch_training),
    /// [`offer_update`](TaskRuntime::offer_update) or
    /// [`client_failed`](TaskRuntime::client_failed) spares them a search.
    pub(crate) fn begin_participation(
        &mut self,
        participation_id: u64,
        client_id: usize,
        execution_time_s: f64,
    ) -> InFlightSlot {
        self.in_flight.insert(
            participation_id,
            InFlight {
                client_id,
                start_version: self.model.version(),
                start_params: Arc::clone(&self.snapshot),
                execution_time_s,
            },
        )
    }

    /// Attaches (or detaches) the parallel training pool.  Scenario drivers
    /// share one executor across every runtime of a run.
    pub(crate) fn set_executor(&mut self, executor: Option<Arc<Executor>>) {
        self.executor = executor;
    }

    /// Applies the run's [`TraceBudget`](papaya_core::trace::TraceBudget)
    /// to this task's per-event metric traces and round durations.  Scenario
    /// drivers call this once at construction, before any event is
    /// processed.
    pub fn set_trace_budget(&mut self, budget: papaya_core::trace::TraceBudget) {
        self.metrics.set_trace_budget(budget);
    }

    /// Queues the participation's local training on the executor, so it is
    /// (usually) already computed when the finish event fires.  Drivers call
    /// this only for participations that will reach their finish event —
    /// speculating on doomed ones would waste workers.
    ///
    /// For secure tasks this is also where the mask is planned, on every
    /// path: planning burns the session's ratchet counter, and doing that at
    /// the same point of the event order regardless of parallelism is what
    /// keeps secure runs bit-identical at any thread count.  The mask itself
    /// is expanded inline when the upload is accumulated.
    pub(crate) fn prefetch_training(&mut self, participation_id: u64, slot: InFlightSlot) {
        let Some(in_flight) = self.in_flight.get(participation_id, Some(slot)) else {
            return;
        };
        let client_id = in_flight.client_id;
        self.aggregator.plan_mask_precompute(client_id);
        let Some(executor) = &self.executor else {
            return;
        };
        executor.submit(TrainJob {
            participation_id,
            client_id,
            start_params: Arc::clone(&in_flight.start_params),
            seed: participation_seed(self.seed, participation_id),
            trainer: Arc::clone(&self.trainer),
        });
    }

    /// Drops any speculative training queued for an aborted participation.
    fn discard_prefetch(&self, participation_id: u64) {
        if let Some(executor) = &self.executor {
            executor.discard(participation_id);
        }
    }

    /// Records a utilization sample at `now`.
    pub(crate) fn record_utilization(&mut self, now: SimTime) {
        self.metrics.record_utilization(now, self.in_flight.len());
    }

    /// A client finished local training and reports its update.  Runs the
    /// trainer, feeds the aggregator, and applies a server update when the
    /// aggregator becomes ready.  Returns `None` when the participation
    /// was already aborted (round end, staleness abort, or failover).
    /// `slot` is what [`begin_participation`](TaskRuntime::begin_participation)
    /// returned, if the caller kept it.
    pub(crate) fn offer_update(
        &mut self,
        participation_id: u64,
        slot: Option<InFlightSlot>,
        now: SimTime,
    ) -> Option<UpdateOutcome> {
        let in_flight = self.in_flight.remove(participation_id, slot)?;
        let client_id = in_flight.client_id;
        self.metrics.comm_trips += 1;

        let seed = participation_seed(self.seed, participation_id);
        let mut result = match &self.executor {
            // The pool usually finished this job long ago; if it is still
            // queued the driver steals it and trains inline.  Either way the
            // inputs are identical to the sequential call below, so the
            // result is bit-identical.
            Some(executor) => executor.take_or_run(participation_id, || {
                self.trainer.train(client_id, &in_flight.start_params, seed)
            }),
            None => self.trainer.train(client_id, &in_flight.start_params, seed),
        };

        // Byzantine injection point: a malicious client corrupts its upload
        // after local training, before anything server-side sees it.  The
        // ground truth recorded here never reaches the defenses — they must
        // work from the update contents alone.  (SecAgg protocol deviations
        // are armed inside the secure pipeline instead; see
        // `AggregationStack::for_task`.)
        let mut claimed_start_version = in_flight.start_version;
        if let Some(spec) = self.config.adversary {
            if spec.is_malicious(client_id) {
                if spec.lies_about_staleness() {
                    // The liar trained against the frozen initial model but
                    // reports the current version: staleness metadata is
                    // client-claimed, so weighting schemes that trust it
                    // give the stale update full weight.  Retraining is
                    // inline on both executor paths, keeping runs
                    // bit-identical at any thread count.
                    result = self.trainer.train(client_id, &self.initial_params, seed);
                    claimed_start_version = self.model.version();
                }
                spec.corrupt_delta(client_id, &mut result.delta);
                self.metrics
                    .record_attack(now, client_id, spec.malice.label());
            }
        }
        let num_examples = result.num_examples;
        let update = ClientUpdate::from_result(client_id, claimed_start_version, result);
        let accumulate_outcome = self
            .aggregator
            .accumulate(update, self.model.version(), now);
        let accepted = accumulate_outcome.accepted();
        match accumulate_outcome {
            AccumulateOutcome::Accepted { staleness } => {
                // The sweeps after each release are the only round close and
                // staleness bound; this is what they guarantee.
                match self.config.mode {
                    TrainingMode::Sync => debug_assert_eq!(
                        staleness, 0,
                        "an upload from a closed round: end_sync_round missed it"
                    ),
                    TrainingMode::Async { max_staleness, .. } => debug_assert!(
                        staleness <= max_staleness,
                        "staleness {staleness} past the bound {max_staleness}: \
                         abort_overly_stale_clients missed it"
                    ),
                }
                self.metrics.staleness_sum += staleness;
                self.metrics.aggregated_updates += 1;
            }
            AccumulateOutcome::RejectedByDefense => {
                self.metrics.rejected_by_defense_updates += 1;
            }
        }
        if self.releases_close_rounds() {
            self.completed_this_round += 1;
        }
        self.metrics.participations.push(ParticipationRecord {
            client_id,
            execution_time_s: in_flight.execution_time_s,
            num_examples,
            aggregated: accepted,
        });

        Some(self.poll(now).unwrap_or_default())
    }

    /// Releases the aggregator's buffer if it is ready at `now`: the server
    /// model steps, and a synchronous task closes its round while a
    /// buffered one aborts clients past its staleness bound.  Every
    /// [`offer_update`](TaskRuntime::offer_update) ends here; drivers also
    /// call it at a strategy's deadline, when the buffer becomes ready
    /// without a new arrival.  Returns `None` when nothing was released.
    pub(crate) fn poll(&mut self, now: SimTime) -> Option<UpdateOutcome> {
        if !self.aggregator.is_ready(now) {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "take() is called under is_ready(); a None here is an aggregator contract breach"
        )]
        let delta = self
            .aggregator
            .take(now)
            .expect("ready aggregator must release");
        self.apply_server_update(&delta);
        let mut outcome = UpdateOutcome::default();
        if self.releases_close_rounds() {
            outcome.round_ended = true;
            outcome.freed = self.end_sync_round(now);
        } else {
            outcome.freed = self.abort_overly_stale_clients();
        }
        Some(outcome)
    }

    /// The virtual time at which the aggregator becomes ready without a new
    /// arrival, if one exists (deadline strategies with an open buffer).
    /// Drivers schedule a [`poll`](TaskRuntime::poll) at this time.
    pub(crate) fn next_deadline_s(&self) -> Option<f64> {
        self.aggregator.next_deadline_s()
    }

    /// A participating client failed (dropout, crash, or timeout abort).
    /// Returns the freed device id, or `None` if the participation had
    /// already been aborted.  `slot` is as for
    /// [`offer_update`](TaskRuntime::offer_update).
    pub(crate) fn client_failed(
        &mut self,
        participation_id: u64,
        slot: Option<InFlightSlot>,
    ) -> Option<usize> {
        let in_flight = self.in_flight.remove(participation_id, slot)?;
        self.discard_prefetch(participation_id);
        self.metrics.failed_participations += 1;
        Some(in_flight.client_id)
    }

    /// Runs an evaluation at `now`; returns the loss and records it on the
    /// loss curve.  Sets [`hours_to_target`](TaskRuntime::hours_to_target)
    /// the first time the target loss is reached.
    pub(crate) fn evaluate(&mut self, now: SimTime) -> f64 {
        let loss = self.trainer.evaluate(self.model.params(), &self.eval_ids);
        self.final_loss = loss;
        self.metrics.loss_curve.push((now / 3600.0, loss));
        if self.hours_to_target.is_none() {
            if let Some(target) = self.target_loss {
                if loss <= target {
                    self.hours_to_target = Some(now / 3600.0);
                }
            }
        }
        loss
    }

    /// Whether the configured target loss has been reached.
    pub(crate) fn target_reached(&self) -> bool {
        self.hours_to_target.is_some()
    }

    /// Discards all buffered (not yet aggregated) updates, as happens when
    /// the Aggregator holding this task dies.  Returns how many buffered
    /// updates were lost; they are also recorded in the task metrics.
    pub(crate) fn drop_buffered_updates(&mut self) -> usize {
        let dropped = self.aggregator.reset();
        // A synchronous round loses its progress with the buffer.
        self.completed_this_round = 0;
        self.metrics.lost_buffered_updates += dropped as u64;
        dropped
    }

    /// Whether the task's cumulative ε has reached its configured budget
    /// (always false for tasks without DP or without a budget).  ε only
    /// grows on a release, so drivers check this after every event that can
    /// release and stop the scenario with a privacy-budget stop reason.
    pub(crate) fn privacy_budget_exhausted(&self) -> bool {
        let Some(budget) = self.config.dp.and_then(|dp| dp.epsilon_budget) else {
            return false;
        };
        self.aggregator
            .telemetry()
            .dp
            .is_some_and(|telemetry| telemetry.cumulative_epsilon >= budget)
    }

    /// Consumes the runtime and returns its pieces for result assembly.
    /// This is where the decorators' telemetry enters the task metrics:
    /// each layer keeps its own counters and traces during the run, and
    /// they are copied out once, here.
    pub(crate) fn into_parts(mut self) -> (MetricsCollector, ParamVec, u64, f64, Option<f64>) {
        let stack = self.aggregator.telemetry();
        self.metrics.secure = stack.secure.cloned().unwrap_or_default();
        self.metrics.secure_timings = stack.secure_timings.unwrap_or_default();
        self.metrics.dp = stack.dp.cloned().unwrap_or_default();
        self.metrics.robust = stack.robust.cloned().unwrap_or_default();
        (
            self.metrics,
            self.model.snapshot(),
            self.model.version(),
            self.final_loss,
            self.hours_to_target,
        )
    }

    fn apply_server_update(&mut self, delta: &ParamVec) {
        self.model.apply_update(self.optimizer.as_mut(), delta);
        self.snapshot = Arc::new(self.model.snapshot());
        self.metrics.server_updates += 1;
    }

    /// Whether a release closes a cohort round (Appendix E.3): only in a
    /// synchronous task.  Buffered tasks' stragglers keep training.
    fn releases_close_rounds(&self) -> bool {
        self.config.mode == TrainingMode::Sync
    }

    /// Aborts in-flight clients whose staleness would exceed the mode's
    /// bound (Appendix E.1: "clients may also be aborted by the server if
    /// staleness is higher than a configurable value").  No-op for
    /// synchronous tasks, whose model does not move within a round.
    fn abort_overly_stale_clients(&mut self) -> Vec<FreedClient> {
        let TrainingMode::Async { max_staleness, .. } = self.config.mode else {
            return Vec::new();
        };
        let version = self.model.version();
        // Ids and the model version both only grow, so the overly stale
        // participations are exactly the oldest ones: the sweep stops at
        // the first that is fresh enough.
        debug_assert!(
            self.in_flight
                .iter()
                .map(|(_, _, f)| f.start_version)
                .is_sorted(),
            "start_version must be non-decreasing in participation id"
        );
        let aborted: Vec<(u64, InFlightSlot)> = self
            .in_flight
            .iter()
            .take_while(|(_, _, f)| version.saturating_sub(f.start_version) > max_staleness)
            .map(|(participation_id, slot, _)| (participation_id, slot))
            .collect();
        let freed = self.abort(&aborted);
        self.metrics.failed_participations += freed.len() as u64;
        freed
    }

    /// Ends a synchronous round: aborts every still-running client (all of
    /// them belong to the closing round) and starts the next one.
    fn end_sync_round(&mut self, now: SimTime) -> Vec<FreedClient> {
        let aborted: Vec<(u64, InFlightSlot)> = self
            .in_flight
            .iter()
            .map(|(participation_id, slot, _)| (participation_id, slot))
            .collect();
        let freed = self.abort(&aborted);
        self.metrics.aborted_by_round_end += freed.len() as u64;
        self.metrics
            .record_round_duration(now - self.round_start_time);
        self.round_start_time = now;
        self.completed_this_round = 0;
        freed
    }

    /// Removes the given in-flight participations, dropping their
    /// speculative work, and returns their devices in the order given.
    fn abort(&mut self, aborted: &[(u64, InFlightSlot)]) -> Vec<FreedClient> {
        aborted
            .iter()
            .filter_map(|&(participation_id, slot)| {
                let in_flight = self.in_flight.remove(participation_id, Some(slot))?;
                self.discard_prefetch(participation_id);
                Some(FreedClient {
                    participation_id,
                    client_id: in_flight.client_id,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
    use papaya_data::population::{Population, PopulationConfig};

    impl TaskRuntime {
        /// Number of clients currently in flight.
        fn active(&self) -> usize {
            self.in_flight.len()
        }

        /// Current server model version.
        fn version(&self) -> u64 {
            self.model.version()
        }

        /// Snapshot of the current server parameters (what a client downloads).
        fn model_snapshot(&self) -> ParamVec {
            self.model.snapshot()
        }

        /// Virtual hours at which the target loss was reached, if it was.
        fn hours_to_target(&self) -> Option<f64> {
            self.hours_to_target
        }
    }

    fn runtime(config: TaskConfig) -> TaskRuntime {
        let pop = Population::generate(&PopulationConfig::default().with_size(200), 5);
        let trainer = Arc::new(ProceduralSurrogate::new(
            &pop,
            SurrogateConfig::default(),
            5,
        ));
        TaskRuntime::new(
            config,
            ServerOptimizerKind::FedAvg,
            trainer,
            (0..50).collect(),
            5,
            None,
        )
    }

    /// The task as given, then the same task under the full decorator stack
    /// (secure aggregation, a DP layer that neither clips nor adds noise, a
    /// neutral defense).  Round closing and the staleness bound come from
    /// the mode, so the runtime's policy must not depend on the stack.
    fn clear_and_fully_stacked(config: TaskConfig) -> [TaskConfig; 2] {
        let stacked = config
            .clone()
            .with_secagg(papaya_core::SecAggMode::AsyncSecAgg)
            .with_dp(papaya_core::DpConfig::new(1e6, 0.0))
            .with_robust(papaya_core::RobustConfig::neutral());
        [config, stacked]
    }

    /// `Run::release_freed` returns devices to the pool in `freed` order and
    /// the pinned fingerprints depend on it.
    fn ascending(freed: &[FreedClient]) -> bool {
        freed
            .windows(2)
            .all(|pair| pair[0].participation_id < pair[1].participation_id)
    }

    #[test]
    fn async_goal_triggers_server_update() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 2));
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        assert_eq!(rt.active(), 2);
        assert_eq!(rt.demand(), 6);
        rt.offer_update(0, None, 10.0).unwrap();
        assert_eq!(rt.metrics().aggregated_updates, 1);
        assert_eq!(rt.version(), 0);
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.metrics().aggregated_updates, 2);
        assert_eq!(rt.version(), 1);
        assert_eq!(rt.metrics().comm_trips, 2);
    }

    #[test]
    fn unknown_participation_is_ignored() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 2));
        assert!(rt.offer_update(99, None, 1.0).is_none());
        assert!(rt.client_failed(99, None).is_none());
        assert_eq!(rt.metrics().comm_trips, 0);
    }

    #[test]
    fn sync_round_end_frees_stragglers() {
        for config in clear_and_fully_stacked(TaskConfig::sync_task("t", 6, 0.5)) {
            let secagg = config.secagg;
            let mut rt = runtime(config);
            // Goal is 6 / 1.5 = 4; the other two clients are stragglers.
            for pid in 0..6u64 {
                let execution_time_s = if pid % 3 == 2 { 100.0 } else { 10.0 };
                rt.begin_participation(pid, pid as usize, execution_time_s);
            }
            rt.offer_update(0, None, 10.0).unwrap();
            rt.offer_update(1, None, 10.0).unwrap();
            rt.offer_update(3, None, 10.0).unwrap();
            let outcome = rt.offer_update(4, None, 11.0).unwrap();
            assert!(outcome.round_ended, "{secagg:?}");
            assert_eq!(rt.version(), 1, "{secagg:?}");
            let freed_ids: Vec<u64> = outcome.freed.iter().map(|f| f.participation_id).collect();
            assert_eq!(freed_ids, vec![2, 5], "{secagg:?}");
            assert!(ascending(&outcome.freed));
            assert_eq!(rt.metrics().round_durations_s.offered(), 1);
            assert_eq!(rt.metrics().aborted_by_round_end, 2);
            // The straggler's late report is silently ignored.
            assert!(rt.offer_update(2, None, 100.0).is_none());
        }
    }

    /// An abort frees the participation's slot for the next one, so the
    /// aborted participation's finish or failure still carries that slot.
    /// It must miss, not end the participation now living there.
    #[test]
    fn a_reused_slot_never_ends_the_participation_living_there() {
        let mut rt = runtime(TaskConfig::sync_task("t", 6, 0.5));
        let slots: Vec<InFlightSlot> = (0..6u64)
            .map(|pid| rt.begin_participation(pid, pid as usize, 10.0))
            .collect();
        for pid in [0, 1, 3, 4] {
            rt.offer_update(pid, Some(slots[pid as usize]), 10.0)
                .unwrap();
        }
        // The round end aborted 2 and 5; 5's slot was freed last.
        let reused = rt.begin_participation(6, 6, 10.0);
        assert_eq!(reused, slots[5]);
        assert!(rt.client_failed(5, Some(slots[5])).is_none());
        assert!(rt.offer_update(5, Some(slots[5]), 11.0).is_none());
        assert!(rt.offer_update(2, Some(slots[2]), 12.0).is_none());
        assert_eq!(rt.active(), 1);
        assert_eq!(rt.metrics().failed_participations, 0);
        assert_eq!(rt.metrics().comm_trips, 4);
        rt.offer_update(6, Some(reused), 13.0).unwrap();
        assert_eq!(rt.metrics().aggregated_updates, 5);
    }

    #[test]
    fn failed_client_is_freed_and_counted() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 4));
        rt.begin_participation(7, 3, 5.0);
        assert_eq!(rt.client_failed(7, None), Some(3));
        assert_eq!(rt.metrics().failed_participations, 1);
        assert_eq!(rt.active(), 0);
    }

    #[test]
    fn drop_buffered_updates_loses_progress() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 3));
        rt.begin_participation(0, 0, 1.0);
        rt.begin_participation(1, 1, 1.0);
        rt.offer_update(0, None, 1.0).unwrap();
        rt.offer_update(1, None, 1.0).unwrap();
        assert_eq!(rt.drop_buffered_updates(), 2);
        assert_eq!(rt.metrics().lost_buffered_updates, 2);
        // The next goal needs a full buffer again.
        rt.begin_participation(2, 2, 1.0);
        rt.begin_participation(3, 3, 1.0);
        rt.offer_update(2, None, 2.0).unwrap();
        rt.offer_update(3, None, 2.0).unwrap();
        assert_eq!(rt.version(), 0, "buffer was reset, goal is 3");
    }

    /// The staleness sweep stops at the first in-flight participation that
    /// is fresh enough.  That is only the full filter if `start_version`
    /// never decreases along the table, so drive a bounded-staleness FedBuff
    /// runtime, bare and fully stacked, through a few hundred begin / offer /
    /// fail steps and hold every server step against the filter over the
    /// same table.
    #[test]
    fn staleness_prefix_scan_matches_the_full_filter() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const MAX_STALENESS: u64 = 2;
        let task = TaskConfig::async_task("t", 24, 3).with_max_staleness(MAX_STALENESS);
        for config in clear_and_fully_stacked(task) {
            let mut rt = runtime(config);
            let mut rng = StdRng::seed_from_u64(23);
            let mut next_id = 0u64;
            let mut live: Vec<u64> = Vec::new();
            let (mut server_steps, mut aborted) = (0, 0);
            for step in 0..600 {
                if live.is_empty() || (rt.demand() > 0 && rng.gen_bool(0.5)) {
                    rt.begin_participation(next_id, rng.gen_range(0..200), 1.0);
                    live.push(next_id);
                    next_id += 1;
                    continue;
                }
                // Finish a random participation, so old downloads linger while
                // the version moves on.
                let pid = live.swap_remove(rng.gen_range(0..live.len()));
                if rng.gen_bool(0.2) {
                    assert!(rt.client_failed(pid, None).is_some());
                    continue;
                }
                let before: Vec<(u64, u64)> = rt
                    .in_flight
                    .iter()
                    .filter(|&(id, ..)| id != pid)
                    .map(|(id, _, f)| (id, f.start_version))
                    .collect();
                let version_before = rt.version();
                let outcome = rt.offer_update(pid, None, step as f64).unwrap();
                let version = rt.version();
                let too_stale: Vec<u64> = before
                    .iter()
                    .filter(|&&(_, start_version)| version - start_version > MAX_STALENESS)
                    .map(|&(id, _)| id)
                    .collect();
                let freed: Vec<u64> = outcome.freed.iter().map(|f| f.participation_id).collect();
                if version > version_before {
                    server_steps += 1;
                    assert_eq!(freed, too_stale, "step {step}, version {version}");
                } else {
                    assert!(freed.is_empty());
                }
                assert!(ascending(&outcome.freed));
                aborted += freed.len();
                live.retain(|id| !freed.contains(id));
                assert_eq!(rt.active(), live.len());
            }
            assert!(server_steps > 50, "only {server_steps} server steps");
            assert!(aborted > 20, "only {aborted} staleness aborts");
        }
    }

    #[test]
    fn evaluate_tracks_target() {
        let pop = Population::generate(&PopulationConfig::default().with_size(100), 5);
        let trainer = Arc::new(ProceduralSurrogate::new(
            &pop,
            SurrogateConfig::default(),
            5,
        ));
        let initial = trainer.evaluate(&trainer.initial_parameters(), &[0, 1, 2]);
        let mut rt = TaskRuntime::new(
            TaskConfig::async_task("t", 4, 2),
            ServerOptimizerKind::FedAvg,
            trainer,
            vec![0, 1, 2],
            5,
            Some(initial * 2.0),
        );
        assert!(!rt.target_reached());
        let loss = rt.evaluate(3600.0);
        assert!((loss - initial).abs() < 1e-9);
        assert!(rt.target_reached());
        assert_eq!(rt.hours_to_target(), Some(1.0));
    }

    #[test]
    fn executor_backed_runtime_matches_sequential() {
        let drive = |executor: Option<Arc<crate::executor::Executor>>| {
            let mut rt = runtime(TaskConfig::async_task("t", 8, 3));
            rt.set_executor(executor);
            // A mix of prefetched finishes, an un-prefetched finish, a
            // failure, and a staleness-era release.
            let slots: Vec<InFlightSlot> = (0..4u64)
                .map(|pid| rt.begin_participation(pid, pid as usize, 5.0))
                .collect();
            rt.prefetch_training(0, slots[0]);
            rt.prefetch_training(1, slots[1]);
            rt.prefetch_training(3, slots[3]); // later fails; result discarded
            rt.client_failed(3, Some(slots[3]));
            rt.offer_update(0, Some(slots[0]), 10.0).unwrap();
            rt.offer_update(1, None, 11.0).unwrap();
            rt.offer_update(2, Some(slots[2]), 12.0).unwrap(); // never prefetched
            (rt.version(), rt.metrics().comm_trips, rt.model_snapshot())
        };
        let sequential = drive(None);
        let parallel = drive(Some(Arc::new(crate::executor::Executor::new(2))));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn secagg_config_flag_wraps_the_aggregator() {
        let mut clear = runtime(TaskConfig::async_task("t", 8, 2));
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2).with_secagg(papaya_core::SecAggMode::AsyncSecAgg),
        );
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.version(), 1);

        clear.begin_participation(0, 0, 10.0);
        clear.begin_participation(1, 1, 10.0);
        clear.offer_update(0, None, 10.0).unwrap();
        clear.offer_update(1, None, 11.0).unwrap();
        assert_eq!(clear.version(), 1);

        // The secure and clear models agree to fixed-point tolerance.
        let secure_params = rt.model_snapshot();
        let clear_params = clear.model_snapshot();
        let max_diff = secure_params
            .as_slice()
            .iter()
            .zip(clear_params.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-3, "secure vs clear diverged: {max_diff}");

        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.secure.masked_updates, 2);
        assert_eq!(metrics.secure.tsa_key_releases, 1);
        assert!(metrics.secure.tee_bytes_in > 0);
        assert_eq!(metrics.secure.quantization_error_trace.len(), 1);
        // The clear runtime has no secure layer to report.
        let (clear_metrics, ..) = clear.into_parts();
        assert_eq!(clear_metrics.secure, Default::default());
    }

    #[test]
    fn secure_drop_buffered_updates_has_no_key_release() {
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 3).with_secagg(papaya_core::SecAggMode::AsyncSecAgg),
        );
        rt.begin_participation(0, 0, 1.0);
        rt.begin_participation(1, 1, 1.0);
        rt.offer_update(0, None, 1.0).unwrap();
        rt.offer_update(1, None, 1.0).unwrap();
        assert_eq!(rt.drop_buffered_updates(), 2);
        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.secure.buffers_dropped_unreleased, 1);
        assert_eq!(metrics.secure.tsa_key_releases, 0);
        assert_eq!(metrics.lost_buffered_updates, 2);
    }

    #[test]
    fn dp_config_flag_wraps_the_aggregator() {
        let clear = runtime(TaskConfig::async_task("t", 8, 2));
        assert!(!clear.privacy_budget_exhausted());
        let (clear_metrics, ..) = clear.into_parts();
        assert_eq!(clear_metrics.dp, Default::default());

        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2)
                .with_dp(papaya_core::DpConfig::new(50.0, 1.0).with_epsilon_budget(1e6)),
        );
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.version(), 1);
        assert!(!rt.privacy_budget_exhausted(), "budget of 1e6 is generous");
        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.secure, Default::default(), "DP alone masks nothing");
        assert_eq!(metrics.dp.releases, 1);
        assert_eq!(metrics.dp.accepted_updates, 2);
        assert_eq!(metrics.dp.release_trace.len(), 1);
        assert!(metrics.dp.cumulative_epsilon > 0.0);
    }

    #[test]
    fn dp_stacks_over_secagg_in_the_runtime() {
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2)
                .with_secagg(papaya_core::SecAggMode::AsyncSecAgg)
                .with_dp(papaya_core::DpConfig::new(50.0, 0.0)),
        );
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.version(), 1);
        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.dp.releases, 1);
        assert_eq!(metrics.secure.tsa_key_releases, 1);
        assert_eq!(metrics.secure.masked_updates, 2);
    }

    #[test]
    fn robust_config_flag_wraps_the_aggregator() {
        let mut clear = runtime(TaskConfig::async_task("t", 8, 2));
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2).with_robust(papaya_core::RobustConfig::neutral()),
        );
        for (pid, cid) in [(0u64, 0usize), (1, 1)] {
            rt.begin_participation(pid, cid, 10.0);
            clear.begin_participation(pid, cid, 10.0);
        }
        rt.offer_update(0, None, 10.0).unwrap();
        clear.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        clear.offer_update(1, None, 11.0).unwrap();
        assert_eq!((rt.version(), clear.version()), (1, 1));

        // The neutral defense is a pure pass-through: bit-identical model.
        assert_eq!(
            rt.model_snapshot().as_slice(),
            clear.model_snapshot().as_slice()
        );
        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.robust.rejected_total(), 0);
        assert_eq!(metrics.robust.estimator_releases, 0);
        assert_eq!(metrics.attacked_updates, 0);
    }

    #[test]
    fn norm_filter_rejects_a_scaled_attacker() {
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2)
                .with_robust(papaya_core::RobustConfig::new(
                    papaya_core::RobustDefense::NormFilter { max_norm: 10.0 },
                ))
                .with_adversary(papaya_core::AdversarySpec::new(
                    1.0,
                    papaya_core::Malice::Scaled { factor: 1e6 },
                )),
        );
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.metrics().aggregated_updates, 0);
        assert_eq!(rt.version(), 0, "every poisoned update was filtered");
        assert_eq!(rt.metrics().rejected_by_defense_updates, 2);
        assert_eq!(rt.metrics().attacked_updates, 2);
        assert_eq!(rt.metrics().attacks_by_label.get("scaled"), Some(&2));
        let (metrics, ..) = rt.into_parts();
        assert_eq!(metrics.robust.rejected_by_norm, 2);
    }

    #[test]
    fn staleness_liar_claims_fresh_metadata() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 2).with_adversary(
            papaya_core::AdversarySpec::new(1.0, papaya_core::Malice::StalenessLiar),
        ));
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.begin_participation(2, 2, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.version(), 1);
        // Participation 2 started at version 0 and uploads at version 1 —
        // honest staleness 1, but the liar claims to be fresh.
        rt.offer_update(2, None, 12.0).unwrap();
        assert_eq!(rt.metrics().aggregated_updates, 3);
        assert_eq!(rt.metrics().staleness_sum, 0, "the lie zeroed staleness");
        assert_eq!(
            rt.metrics().attacks_by_label.get("staleness-liar"),
            Some(&3)
        );
    }

    #[test]
    fn secagg_deviation_is_armed_from_the_task_config() {
        let mut rt = runtime(
            TaskConfig::async_task("t", 8, 2)
                .with_secagg(papaya_core::SecAggMode::AsyncSecAgg)
                .with_adversary(papaya_core::AdversarySpec::new(
                    1.0,
                    papaya_core::Malice::SecAggDeviation {
                        kind: papaya_core::DeviationKind::WrongCounter,
                    },
                )),
        );
        rt.begin_participation(0, 0, 10.0);
        rt.begin_participation(1, 1, 10.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 11.0).unwrap();
        assert_eq!(rt.version(), 1, "deviation never panics the release");
        let (metrics, ..) = rt.into_parts();
        assert_eq!(
            metrics.secure.out_of_range_releases, 1,
            "the wrong-counter upload corrupted the decode and was flagged"
        );
        assert_eq!(
            metrics.attacks_by_label.get("secagg-wrong-counter"),
            Some(&2)
        );
    }

    #[test]
    fn poll_is_a_noop_for_count_based_strategies() {
        let mut rt = runtime(TaskConfig::async_task("t", 8, 3));
        rt.begin_participation(0, 0, 1.0);
        rt.offer_update(0, None, 1.0).unwrap();
        assert!(rt.poll(1e9).is_none());
        assert_eq!(rt.version(), 0);
    }

    #[test]
    fn poll_releases_a_timed_hybrid_buffer_on_deadline() {
        let mut rt = runtime(TaskConfig::timed_hybrid_task("t", 8, 100, 60.0));
        rt.begin_participation(0, 0, 1.0);
        rt.begin_participation(1, 1, 1.0);
        rt.offer_update(0, None, 10.0).unwrap();
        rt.offer_update(1, None, 20.0).unwrap();
        // Goal of 100 is nowhere near met; before the deadline nothing moves.
        assert!(rt.poll(50.0).is_none());
        assert_eq!(rt.version(), 0);
        // 60 s after the buffer opened, poll force-releases it.
        let outcome = rt.poll(70.0).expect("deadline release");
        assert!(!outcome.round_ended);
        assert_eq!(rt.version(), 1);
        assert_eq!(rt.metrics().server_updates, 1);
        // The buffer restarts empty.
        assert!(rt.poll(71.0).is_none());
    }

    #[test]
    fn poll_at_the_reported_deadline_releases() {
        // The driver schedules its poll at exactly `next_deadline_s()`; a
        // poll there that released nothing would never be rescheduled.
        let mut rt = runtime(TaskConfig::timed_hybrid_task("t", 8, 100, 600.0));
        rt.begin_participation(0, 0, 1.0);
        rt.offer_update(0, None, 883.801).unwrap();
        let deadline = rt.next_deadline_s().expect("an open buffer has a deadline");
        assert!(
            rt.poll(deadline).is_some(),
            "poll at {deadline} did nothing"
        );
        assert_eq!(rt.version(), 1);
    }

    #[test]
    fn hybrid_runtime_rejects_overly_stale_uploads() {
        let mut rt =
            runtime(TaskConfig::timed_hybrid_task("t", 8, 1, 1000.0).with_max_staleness(0));
        // Clients 0 and 2 download at version 0; after one release they are
        // staler than the bound, so the sweep aborts them before they upload.
        rt.begin_participation(0, 0, 1.0);
        rt.begin_participation(1, 1, 1.0);
        rt.begin_participation(2, 2, 1.0);
        let release = rt.offer_update(1, None, 1.0).unwrap(); // goal 1 → release, version 1
        assert_eq!(rt.version(), 1);
        assert_eq!(
            release.freed.len(),
            2,
            "both other downloads are now too stale"
        );
        assert!(ascending(&release.freed));
        assert_eq!(rt.metrics().failed_participations, 2);
        // The aborted client's late report is ignored.
        assert!(rt.offer_update(0, None, 2.0).is_none());
        assert_eq!(rt.metrics().comm_trips, 1);
    }
}
