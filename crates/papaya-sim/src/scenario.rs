//! The simulation entrypoint: one builder and one run loop for every
//! workload shape.
//!
//! A [`Scenario`] composes tasks, a shared device population, an optional
//! control-plane fleet (Aggregators/Selectors), a crash schedule, run
//! limits, an evaluation policy, and a seed, and returns one [`Report`]
//! (per-task [`TaskReport`]s plus a fleet roll-up).
//!
//! Every scenario runs on the same event loop — one event queue, one device
//! pool, one [`TaskRuntime`] per task, one dispatch over
//! [`EventKind`] — with or without a control plane:
//!
//! * **Direct** (no [`FleetSpec`]): exactly one task, with a freed device
//!   replaced the moment it is freed and utilization sampled periodically.
//!   This is the configuration behind every single-task figure of the
//!   paper.
//! * **Fleet** (with a [`FleetSpec`]): any number of tasks placed on
//!   persistent Aggregators by the Coordinator, devices assigned at
//!   control-plane ticks and routed through Selectors by capability tier,
//!   injectable Aggregator crashes with buffered-update loss and task
//!   reassignment (Sections 4, 6.2–6.3, Appendix E.4).
//!
//! Three differences between the two are deliberate and pinned by the
//! committed fingerprints (`crates/bench/tests/golden_fingerprints.txt`):
//! a direct run seeds its runtime with the scenario seed itself while a
//! fleet run salts it per task; the two start from different initial
//! events, whose order fixes the tie-breaking sequence numbers; and only a
//! direct run records a utilization sample on every refill and round end.
//!
//! # Quickstart
//!
//! ```
//! use papaya_core::TaskConfig;
//! use papaya_data::population::{Population, PopulationConfig};
//! use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
//!
//! let population = Population::generate(&PopulationConfig::default().with_size(500), 1);
//! let report = Scenario::builder()
//!     .population(population)
//!     .task(TaskConfig::async_task("demo", 32, 8))
//!     .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
//!     .eval(EvalPolicy::default().with_interval_s(600.0))
//!     .seed(1)
//!     .build()
//!     .run();
//! assert_eq!(report.tasks.len(), 1);
//! assert!(report.tasks[0].server_updates() > 0);
//! println!("stopped: {}", report.stop_reason);
//! ```

use crate::cluster::{AggregatorId, Selector, TaskSpec};
use crate::control_plane::ControlPlaneService;
use crate::events::{EventKind, EventQueue, SimTime};
use crate::executor::{Executor, Parallelism};
use crate::metrics::{ControlPlaneStats, FleetSummary, MetricsCollector};
use crate::sampling::ShardedSamplingPool;
use crate::task_runtime::{FreedClient, InFlightSlot, ServerOptimizerKind, TaskRuntime};
use papaya_core::client::ClientTrainer;
use papaya_core::config::{SecAggMode, TaskConfig, TrainingMode};
use papaya_core::dp::DpTelemetry;
use papaya_core::robust::RobustTelemetry;
use papaya_core::secure::SecureTelemetry;
use papaya_core::surrogate::{SurrogateConfig, SurrogateObjective};
use papaya_core::trace::{DecimatedTrace, Digest, TraceBudget};
use papaya_data::population::{DeviceProfile, Population};
use papaya_nn::params::ParamVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a scenario stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The evaluated loss reached the target (every task, for fleet runs).
    TargetLossReached,
    /// The virtual-time budget was exhausted.
    MaxVirtualTime,
    /// The client-update budget was exhausted.
    MaxClientUpdates,
    /// A DP task's cumulative `epsilon(target_delta)` reached its
    /// configured budget; releasing further aggregates would overspend the
    /// privacy guarantee, so the run stops.
    PrivacyBudgetExhausted,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::TargetLossReached => write!(f, "target loss reached"),
            StopReason::MaxVirtualTime => write!(f, "virtual-time budget exhausted"),
            StopReason::MaxClientUpdates => write!(f, "client-update budget exhausted"),
            StopReason::PrivacyBudgetExhausted => write!(f, "privacy budget exhausted"),
        }
    }
}

/// Stop conditions shared by every scenario shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunLimits {
    /// Hard stop on virtual time, in seconds.
    pub(crate) max_virtual_time_s: f64,
    /// Hard stop on the number of client updates received (summed over
    /// tasks in fleet runs).
    pub(crate) max_client_updates: Option<u64>,
    /// Stop once the evaluated population loss drops to this value (every
    /// task, for fleet runs).
    pub(crate) target_loss: Option<f64>,
    /// Worker threads running client local training off the event-loop
    /// thread.  Reports are bit-identical at every setting (see
    /// [`crate::executor`]); the default is the sequential path.
    pub(crate) parallelism: Parallelism,
    /// Retention budget for the per-event metric traces (utilization, loss
    /// curve, participations, attacks) and the round durations: each keeps
    /// a deterministic stride sample of at most this many offers (see
    /// [`papaya_core::trace`]), 4 096 by default.  Retention is a reporting
    /// choice: a run has one [`Report::fingerprint`] and the same means at
    /// every budget, and metrics memory stays O(budget) however many events
    /// the run takes.
    pub(crate) trace_budget: TraceBudget,
}

/// Samples each bounded metric trace keeps by default.
const DEFAULT_TRACE_BUDGET: usize = 4096;

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_virtual_time_s: 200.0 * 3600.0,
            max_client_updates: None,
            target_loss: None,
            parallelism: Parallelism::sequential(),
            trace_budget: TraceBudget::bounded(DEFAULT_TRACE_BUDGET),
        }
    }
}

impl RunLimits {
    /// Sets the virtual-time budget in hours.
    pub fn with_max_virtual_time_hours(mut self, hours: f64) -> Self {
        self.max_virtual_time_s = hours * 3600.0;
        self
    }

    /// Sets the client-update budget.
    pub fn with_max_client_updates(mut self, updates: u64) -> Self {
        self.max_client_updates = Some(updates);
        self
    }

    /// Sets the target-loss stopping criterion.
    pub fn with_target_loss(mut self, target: f64) -> Self {
        self.target_loss = Some(target);
        self
    }

    /// Sets the client-training parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Caps every per-event metric trace at `max_samples` retained entries
    /// (deterministic stride decimation).
    pub fn with_trace_budget(mut self, max_samples: usize) -> Self {
        self.trace_budget = TraceBudget::bounded(max_samples);
        self
    }
}

/// When and how broadly to evaluate the population loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalPolicy {
    /// Virtual seconds between evaluations.
    pub interval_s: f64,
    /// Number of clients sampled (once, per task) for evaluation.
    pub sample_size: usize,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            interval_s: 300.0,
            sample_size: 200,
        }
    }
}

impl EvalPolicy {
    /// Sets the evaluation interval in virtual seconds.
    pub fn with_interval_s(mut self, interval_s: f64) -> Self {
        self.interval_s = interval_s;
        self
    }

    /// Sets the evaluation sample size.
    pub fn with_sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }
}

/// Speed factor at or above which a device reports capability tier 2.
const FAST_SPEED: f64 = 1.25;

/// Speed factor at or above which a device reports capability tier 1.
const STANDARD_SPEED: f64 = 0.75;

/// The capability tier a device reports at check-in (Section 6.2,
/// "constructing lists of eligible tasks"): tier 2 (fast) devices can train
/// any task, tier 1 (standard) mid-size tasks, tier 0 only unrestricted
/// tasks.
pub(crate) fn capability_tier(device: &DeviceProfile) -> u8 {
    if device.speed_factor >= FAST_SPEED {
        2
    } else if device.speed_factor >= STANDARD_SPEED {
        1
    } else {
        0
    }
}

/// Control-plane sizing and timing for fleet scenarios.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetSpec {
    /// Number of persistent Aggregator processes.
    pub aggregators: usize,
    /// Number of Selector processes routing client requests.
    pub(crate) selectors: usize,
    /// Interval of the control-plane sweep (heartbeats, failure detection,
    /// demand pooling, client assignment).
    pub control_plane_interval_s: f64,
    /// Interval at which Selectors refresh their assignment maps.
    pub selector_refresh_interval_s: f64,
    /// Heartbeat silence after which the Coordinator declares an Aggregator
    /// failed; must exceed `control_plane_interval_s`.
    pub heartbeat_timeout_s: f64,
}

impl FleetSpec {
    /// A fleet with the given process counts and default timing.
    pub fn new(aggregators: usize, selectors: usize) -> Self {
        FleetSpec {
            aggregators,
            selectors,
            control_plane_interval_s: 10.0,
            selector_refresh_interval_s: 45.0,
            heartbeat_timeout_s: 25.0,
        }
    }
}

/// An Aggregator failure injected at a fixed virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedCrash {
    /// When the Aggregator dies, in virtual seconds.
    pub(crate) time_s: f64,
    /// Which Aggregator dies.
    pub(crate) aggregator: AggregatorId,
}

/// An Aggregator recovery injected at a fixed virtual time: the process
/// comes back, heartbeats immediately, and the reconcile pass the heartbeat
/// triggers re-places any orphaned tasks onto it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct InjectedRecovery {
    /// When the Aggregator comes back, in virtual seconds.
    pub(crate) time_s: f64,
    /// Which Aggregator recovers.
    pub(crate) aggregator: AggregatorId,
}

/// End-of-run report for one task of a scenario.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Task identifier (index into the scenario's task list).
    pub(crate) task_id: usize,
    /// Human-readable task name.
    pub name: String,
    /// Population loss at the first evaluation.
    pub initial_loss: f64,
    /// Population loss at the last evaluation.
    pub final_loss: f64,
    /// Virtual hours at which the target loss was reached, if it was.
    pub hours_to_target: Option<f64>,
    /// Final server model version.
    pub(crate) final_version: u64,
    /// Final model parameters.
    pub final_params: ParamVec,
    /// Times this task was moved to a new Aggregator after a failure.
    pub reassignments: u64,
    /// Total virtual hours simulated.
    pub(crate) virtual_hours: f64,
    /// Counters, traces and the means derived from them.
    pub metrics: MetricsCollector,
}

impl TaskReport {
    /// Server model updates per virtual hour (0 for a run that simulated no
    /// time).
    pub fn server_updates_per_hour(&self) -> f64 {
        if self.virtual_hours > 0.0 {
            self.metrics.server_updates as f64 / self.virtual_hours
        } else {
            0.0
        }
    }

    /// Client updates received at the server ("communication trips").
    pub fn comm_trips(&self) -> u64 {
        self.metrics.comm_trips
    }

    /// Server model updates performed.
    pub fn server_updates(&self) -> u64 {
        self.metrics.server_updates
    }
}

/// The outcome of a scenario run: per-task reports plus the fleet roll-up.
#[derive(Clone, Debug)]
pub struct Report {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Total virtual hours simulated.
    pub virtual_hours: f64,
    /// Discrete events processed by the run loop (the repo benchmark
    /// divides the traced run's wall-clock by this for
    /// `scenario.ns_per_event`).
    pub events_processed: u64,
    /// Per-task end-of-run reports, in task order.
    pub tasks: Vec<TaskReport>,
    /// Cross-task roll-up including control-plane counters (zeroed for
    /// direct, fleet-less runs).
    pub fleet: FleetSummary,
}

/// Folds a string as its length, then its bytes, one word each.
fn fold_str(h: &mut Digest, s: &str) {
    h.word(s.len() as u64);
    for &b in s.as_bytes() {
        h.word(u64::from(b));
    }
}

/// Folds a trace as its offer count and its digest: everything the run
/// offered it, whatever the budget retained.
fn fold_trace<T>(h: &mut Digest, trace: &DecimatedTrace<T>) {
    h.word(trace.offered());
    h.word(trace.digest());
}

impl Report {
    /// The report of the only task of a direct scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran more than one task.
    pub fn single(&self) -> &TaskReport {
        assert_eq!(
            self.tasks.len(),
            1,
            "scenario ran {} tasks",
            self.tasks.len()
        );
        &self.tasks[0]
    }

    /// A bit-exact digest of everything the run offered: stop reason,
    /// timing, every counter, every trace's offer count and digest (never
    /// its retained samples, so a [`TraceBudget`] cannot change it), and the
    /// bit patterns of every task's final parameters.  Two runs are
    /// bit-identical iff their fingerprints are equal — this is what the
    /// determinism suite, the committed golden fingerprints and the repo
    /// benchmark (every run against the process's first, the worker pool
    /// against the sequential path) compare across [`Parallelism`] settings.
    pub fn fingerprint(&self) -> String {
        let mut h = Digest::default();
        h.word(match self.stop_reason {
            StopReason::TargetLossReached => 0,
            StopReason::MaxVirtualTime => 1,
            StopReason::MaxClientUpdates => 2,
            StopReason::PrivacyBudgetExhausted => 3,
        });
        h.word(self.virtual_hours.to_bits());
        h.word(self.events_processed);
        // Every struct below is destructured without `..`, so a new field
        // does not compile until it is hashed here or bound to `_` with the
        // reason it stays out.
        for task in &self.tasks {
            let TaskReport {
                // The position in `tasks`, which the hash order already fixes.
                task_id: _,
                name,
                initial_loss,
                final_loss,
                hours_to_target,
                final_version,
                final_params,
                reassignments,
                // Every task's copy of the run's `virtual_hours`, hashed above.
                virtual_hours: _,
                metrics,
            } = task;
            let MetricsCollector {
                utilization_trace,
                // A running sum of the samples utilization_trace's hashed
                // digest already folds.
                active_clients_sum: _,
                loss_curve,
                comm_trips,
                // Never incremented; kept only for the repo benchmark's read.
                discarded_updates: _,
                failed_participations,
                aborted_by_round_end,
                server_updates,
                round_durations_s,
                // A running sum of the samples round_durations_s's hashed
                // digest already folds.
                round_duration_sum_s: _,
                participations,
                staleness_sum,
                aggregated_updates,
                lost_buffered_updates,
                secure,
                // Wall-clock profiling is machine-dependent by nature; hashing
                // it would break the determinism pin it exists to protect.
                secure_timings: _,
                dp,
                robust,
                attacked_updates,
                attacks_by_label,
                attack_trace,
                rejected_by_defense_updates,
            } = metrics;
            let SecureTelemetry {
                masked_updates,
                masked_discarded,
                tsa_key_releases,
                buffers_dropped_unreleased,
                out_of_range_releases,
                tee_bytes_in,
                tee_bytes_out,
                session_cache_hits,
                session_cache_misses,
                dh_exchanges_saved,
                quantization_error_trace,
            } = secure;
            let DpTelemetry {
                accepted_updates,
                clipped_updates,
                releases,
                cumulative_epsilon,
                release_trace,
            } = dp;
            let RobustTelemetry {
                rejected_non_finite,
                rejected_by_norm,
                estimator_releases,
                estimator_trace,
            } = robust;
            fold_str(&mut h, name);
            h.word(*comm_trips);
            h.word(*server_updates);
            h.word(*aggregated_updates);
            h.word(*failed_participations);
            h.word(*aborted_by_round_end);
            h.word(*staleness_sum);
            h.word(*lost_buffered_updates);
            h.word(*masked_updates);
            h.word(*masked_discarded);
            h.word(*tsa_key_releases);
            h.word(*buffers_dropped_unreleased);
            h.word(*out_of_range_releases);
            h.word(*tee_bytes_in);
            h.word(*tee_bytes_out);
            h.word(*session_cache_hits);
            h.word(*session_cache_misses);
            h.word(*dh_exchanges_saved);
            fold_trace(&mut h, quantization_error_trace);
            h.word(*accepted_updates);
            h.word(*clipped_updates);
            h.word(*releases);
            h.word(cumulative_epsilon.to_bits());
            fold_trace(&mut h, release_trace);
            h.word(*rejected_non_finite);
            h.word(*rejected_by_norm);
            h.word(*estimator_releases);
            fold_trace(&mut h, estimator_trace);
            h.word(*rejected_by_defense_updates);
            h.word(*attacked_updates);
            h.word(attacks_by_label.len() as u64);
            for (&label, &count) in attacks_by_label {
                fold_str(&mut h, label);
                h.word(count);
            }
            fold_trace(&mut h, attack_trace);
            h.word(*reassignments);
            h.word(*final_version);
            h.word(initial_loss.to_bits());
            h.word(final_loss.to_bits());
            h.word(hours_to_target.unwrap_or(f64::NEG_INFINITY).to_bits());
            fold_trace(&mut h, loss_curve);
            fold_trace(&mut h, utilization_trace);
            fold_trace(&mut h, participations);
            fold_trace(&mut h, round_durations_s);
            h.word(final_params.len() as u64);
            for &w in final_params.as_slice() {
                h.word(u64::from(w.to_bits()));
            }
        }
        let ControlPlaneStats {
            aggregator_failures,
            task_reassignments,
            stale_route_refusals,
            lost_in_transit_updates,
            final_map_sequence,
            tasks_orphaned,
            tasks_reconciled,
            pending_task_submissions,
            unknown_heartbeat_registrations,
            aggregator_recoveries,
            // Derived from fleet size and tick count, both already pinned by
            // the hashed event count; hashing it would add nothing but a
            // second copy of run shape.
            heartbeats: _,
            // The placements themselves are fingerprinted through routes,
            // reassignment counters, and final params; this is their
            // observability roll-up.
            tasks_placed: _,
            // An observability mirror fully determined by the hashed dispatch
            // counts; hashing it would double-count them.
            control_log_events: _,
            // Checkpoint cadence is an operator knob that must not alter run
            // identity; bit-identity across cadences is the checkpoint
            // correctness proof.
            checkpoints_taken: _,
            checkpoint_age_events: _,
            // A restore must be fingerprint-invisible: identical fingerprints
            // with and without one are the replay-fidelity proof.
            coordinator_restores: _,
        } = &self.fleet.control_plane;
        h.word(*aggregator_failures);
        h.word(*task_reassignments);
        h.word(*stale_route_refusals);
        h.word(*lost_in_transit_updates);
        h.word(*final_map_sequence);
        h.word(*tasks_orphaned);
        h.word(*tasks_reconciled);
        h.word(*pending_task_submissions);
        h.word(*unknown_heartbeat_registrations);
        h.word(*aggregator_recoveries);
        format!(
            "{:?}/{}ev/{}tasks/{:016x}",
            self.stop_reason,
            self.events_processed,
            self.tasks.len(),
            h.value()
        )
    }

    /// Consumes the report and returns the only task's report.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran more than one task.
    #[expect(
        clippy::expect_used,
        reason = "the assert directly above guarantees exactly one task; documented panic"
    )]
    pub fn into_single(mut self) -> TaskReport {
        assert_eq!(
            self.tasks.len(),
            1,
            "scenario ran {} tasks",
            self.tasks.len()
        );
        self.tasks.pop().expect("one task")
    }
}

/// A fully composed simulation, ready to run.  Build one with
/// [`Scenario::builder`].
pub struct Scenario {
    tasks: Vec<TaskConfig>,
    trainers: Vec<Arc<dyn ClientTrainer>>,
    population: Population,
    fleet: Option<FleetSpec>,
    crashes: Vec<InjectedCrash>,
    recoveries: Vec<InjectedRecovery>,
    control_plane_restore_s: Option<f64>,
    limits: RunLimits,
    eval: EvalPolicy,
    server_optimizer: ServerOptimizerKind,
    seed: u64,
}

/// Builder for [`Scenario`]; see the module docs for a quickstart.
pub struct ScenarioBuilder {
    tasks: Vec<TaskConfig>,
    trainers: Vec<Option<Arc<dyn ClientTrainer>>>,
    population: Option<Population>,
    fleet: Option<FleetSpec>,
    crashes: Vec<InjectedCrash>,
    recoveries: Vec<InjectedRecovery>,
    control_plane_restore_s: Option<f64>,
    limits: RunLimits,
    eval: EvalPolicy,
    server_optimizer: ServerOptimizerKind,
    seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            tasks: Vec::new(),
            trainers: Vec::new(),
            population: None,
            fleet: None,
            crashes: Vec::new(),
            recoveries: Vec::new(),
            control_plane_restore_s: None,
            limits: RunLimits::default(),
            eval: EvalPolicy::default(),
            server_optimizer: ServerOptimizerKind::FedAvg,
            seed: 0,
        }
    }
}

impl ScenarioBuilder {
    /// Adds a task trained with a default surrogate objective (seeded per
    /// task, so tasks are distinct learning problems).
    pub fn task(mut self, task: TaskConfig) -> Self {
        self.tasks.push(task);
        self.trainers.push(None);
        self
    }

    /// Adds a task with an explicit client trainer.
    pub fn task_with_trainer(mut self, task: TaskConfig, trainer: Arc<dyn ClientTrainer>) -> Self {
        self.tasks.push(task);
        self.trainers.push(Some(trainer));
        self
    }

    /// Sets the shared device population (required).
    pub fn population(mut self, population: Population) -> Self {
        self.population = Some(population);
        self
    }

    /// Enables the control-plane fleet path: tasks are placed on persistent
    /// Aggregators and clients routed through Selectors.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Injects an Aggregator crash at the given virtual time (fleet only).
    pub fn crash_at(mut self, time_s: f64, aggregator: AggregatorId) -> Self {
        self.crashes.push(InjectedCrash { time_s, aggregator });
        self
    }

    /// Injects an Aggregator recovery at the given virtual time (fleet
    /// only): the crashed process comes back, heartbeats immediately, and
    /// the reconciliation pass re-places orphaned tasks onto it.
    pub fn recover_at(mut self, time_s: f64, aggregator: AggregatorId) -> Self {
        self.recoveries
            .push(InjectedRecovery { time_s, aggregator });
        self
    }

    /// Interrupts the control-plane service at the first control tick at or
    /// after the given virtual time and resumes it from (latest checkpoint +
    /// event-log suffix).  Restore is deterministic replay, so the rest of
    /// the run — and its [`Report::fingerprint`] — is bit-identical to the
    /// uninterrupted run; scenarios use this to prove checkpoint fidelity
    /// end to end (fleet only).
    pub fn restore_control_plane_at(mut self, time_s: f64) -> Self {
        self.control_plane_restore_s = Some(time_s);
        self
    }

    /// Sets the stop conditions.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the evaluation policy.
    pub fn eval(mut self, eval: EvalPolicy) -> Self {
        self.eval = eval;
        self
    }

    /// Sets the server optimizer applied to every task's aggregated deltas.
    pub fn server_optimizer(mut self, kind: ServerOptimizerKind) -> Self {
        self.server_optimizer = kind;
        self
    }

    /// Sets the RNG seed controlling selection, assignment, dropouts, and
    /// training noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the composition and produces a runnable [`Scenario`].
    ///
    /// # Panics
    ///
    /// Panics when the composition is invalid: no population or an empty
    /// one, no tasks, more than one task (or injected crashes/recoveries,
    /// or a control-plane restore) without a fleet, a fleet without
    /// Aggregators or Selectors, a heartbeat timeout not exceeding the
    /// control-plane interval, a periodic interval (evaluation,
    /// control-plane sweep, Selector refresh) that is not positive and
    /// finite, an evaluation sample of zero clients, a crash or recovery at
    /// a non-finite or negative time or on an Aggregator the fleet does not
    /// have, a non-finite restore time, or a task config the pipeline would
    /// not honor (a zero concurrency or aggregation goal, a
    /// non-positive/non-finite round deadline or client timeout, or a
    /// capability-tier restriction without a fleet to enforce it).
    pub fn build(self) -> Scenario {
        #[expect(
            clippy::expect_used,
            reason = "documented builder contract: build() panics without a population (see doc comment)"
        )]
        let population = self.population.expect("a population is required");
        assert!(!population.is_empty(), "population must not be empty");
        assert!(!self.tasks.is_empty(), "at least one task is required");
        for task in &self.tasks {
            validate_task_config(task, self.fleet.is_some());
        }
        validate_run_limits(&self.limits);
        assert_positive_interval("eval.interval_s", self.eval.interval_s);
        assert!(
            self.eval.sample_size > 0,
            "eval.sample_size must be positive"
        );
        if let Some(fleet) = &self.fleet {
            assert!(fleet.aggregators > 0, "at least one aggregator is required");
            assert!(fleet.selectors > 0, "at least one selector is required");
            assert_positive_interval("control_plane_interval_s", fleet.control_plane_interval_s);
            assert_positive_interval(
                "selector_refresh_interval_s",
                fleet.selector_refresh_interval_s,
            );
            assert!(
                fleet.heartbeat_timeout_s > fleet.control_plane_interval_s,
                "heartbeat timeout must exceed the control-plane interval"
            );
            for crash in &self.crashes {
                validate_injection("crash", crash.time_s, crash.aggregator, fleet);
            }
            for recovery in &self.recoveries {
                validate_injection("recovery", recovery.time_s, recovery.aggregator, fleet);
            }
        } else {
            assert_eq!(
                self.tasks.len(),
                1,
                "direct (fleet-less) scenarios drive exactly one task; configure a fleet for multi-task runs"
            );
            assert!(
                self.crashes.is_empty(),
                "crash injection requires a fleet of Aggregators"
            );
            assert!(
                self.recoveries.is_empty(),
                "recovery injection requires a fleet of Aggregators"
            );
            assert!(
                self.control_plane_restore_s.is_none(),
                "control-plane restore requires a fleet of Aggregators"
            );
        }
        if let Some(restore_s) = self.control_plane_restore_s {
            assert!(
                restore_s.is_finite() && restore_s >= 0.0,
                "control-plane restore time must be finite and non-negative"
            );
        }
        let seed = self.seed;
        let trainers: Vec<Arc<dyn ClientTrainer>> = self
            .trainers
            .into_iter()
            .enumerate()
            .map(|(task_id, trainer)| {
                trainer.unwrap_or_else(|| {
                    // Salt with task_id + 1 so task 0's stream is decorrelated
                    // from the driver RNG (and the population generator) too.
                    Arc::new(SurrogateObjective::new(
                        &population,
                        SurrogateConfig::default(),
                        seed ^ (task_id as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                    )) as Arc<dyn ClientTrainer>
                })
            })
            .collect();
        Scenario {
            tasks: self.tasks,
            trainers,
            population,
            fleet: self.fleet,
            crashes: self.crashes,
            recoveries: self.recoveries,
            control_plane_restore_s: self.control_plane_restore_s,
            limits: self.limits,
            eval: self.eval,
            server_optimizer: self.server_optimizer,
            seed,
        }
    }
}

/// The single choke point where a scenario acknowledges every `TaskConfig`
/// field it honors.  The destructuring is exhaustive on purpose — adding a
/// field to `TaskConfig` without deciding whether (and where) scenarios
/// honor it becomes a compile error here, so a knob can never again sit
/// silently ignored the way `SecAggMode` once did.
///
/// # Panics
///
/// Panics on a config the pipeline would *not* honor: a zero concurrency or
/// aggregation goal, a round deadline or client timeout that is not
/// positive and finite, or a capability-tier restriction on a direct
/// (fleet-less) scenario, whose uniform selection has no Selector to
/// enforce tiers.  The fields are `pub`, so the constructors' own checks do
/// not cover a config edited after construction.
fn validate_task_config(task: &TaskConfig, has_fleet: bool) {
    let TaskConfig {
        name: _,               // report labels
        concurrency,           // demand computation
        aggregation_goal,      // strategy goal
        mode,                  // aggregator::for_task builds the strategy
        weight_by_examples: _, // strategy weighting
        client_timeout_s,      // timeout aborts scheduled at selection
        secagg,                // SecureAggregator wrapping in TaskRuntime
        dp,                    // DpAggregator wrapping in TaskRuntime
        robust,                // RobustAggregator wrapping in TaskRuntime
        adversary,             // Byzantine injection in TaskRuntime::offer_update
        model_size_bytes: _,   // communication-cost accounting
        min_capability_tier,   // Selector routing (fleet scenarios only)
    } = task;
    assert!(
        *concurrency > 0,
        "task {:?}: concurrency must be positive",
        task.name
    );
    assert!(
        *aggregation_goal > 0,
        "task {:?}: aggregation goal must be positive",
        task.name
    );
    // Exhaustive matches: a new mode or secagg variant must be wired up (or
    // explicitly rejected) before it compiles.
    match mode {
        TrainingMode::Sync => {}
        TrainingMode::Async {
            max_staleness: _,
            round_deadline_s,
        } => {
            if let Some(deadline_s) = round_deadline_s {
                assert!(
                    deadline_s.is_finite() && *deadline_s > 0.0,
                    "task {:?}: round deadline must be positive and finite",
                    task.name
                );
            }
        }
    }
    match secagg {
        SecAggMode::Disabled | SecAggMode::AsyncSecAgg | SecAggMode::AsyncSecAggPerUpdate => {}
    }
    if let Some(dp) = dp {
        // Every DP knob in range (positive finite clip bound, non-negative
        // noise, sampling rate in (0, 1], delta in (0, 1), a budget only
        // with noise) — rejected here rather than mid-run.
        dp.validate();
    }
    if let Some(robust) = robust {
        // Defense knobs in range (positive norm bound, trim fraction in
        // [0, 0.5)) — rejected here rather than mid-run.
        robust.validate();
    }
    if let Some(adversary) = adversary {
        // Malicious fraction in [0, 1] and every behavior knob finite.
        adversary.validate();
    }
    assert!(
        client_timeout_s.is_finite() && *client_timeout_s > 0.0,
        "task {:?}: client timeout must be positive and finite",
        task.name
    );
    assert!(
        *min_capability_tier == 0 || has_fleet,
        "task {:?}: min_capability_tier is enforced by Selector routing and \
         requires a fleet; direct scenarios select devices uniformly and \
         would silently ignore it",
        task.name
    );
}

/// The choke point where a scenario acknowledges every [`RunLimits`] field
/// it honors — the stop-condition sibling of [`validate_task_config`].  The
/// destructuring is exhaustive on purpose: adding a limit knob without
/// deciding how runs honor it becomes a compile error here, never a
/// silently ignored setting.
///
/// # Panics
///
/// Panics on limits the run loop would not honor: a non-positive or
/// non-finite virtual-time budget, a zero client-update budget, or a
/// non-finite target loss.
fn validate_run_limits(limits: &RunLimits) {
    let RunLimits {
        max_virtual_time_s, // hard stop of the run loop
        max_client_updates, // checked on every client upload
        target_loss,        // checked on every evaluation
        parallelism: _,     // executor pool size; any value is honored
        trace_budget: _,    // validated at construction by TraceBudget::bounded
    } = limits;
    assert!(
        max_virtual_time_s.is_finite() && *max_virtual_time_s > 0.0,
        "max_virtual_time_s must be positive and finite"
    );
    if let Some(max) = max_client_updates {
        assert!(
            *max > 0,
            "max_client_updates of 0 would stop no run; use a positive budget"
        );
    }
    if let Some(target) = target_loss {
        assert!(target.is_finite(), "target_loss must be finite");
    }
}

/// A periodic handler reschedules itself at `now + interval`: a zero
/// interval spins forever at one virtual instant, a negative one walks time
/// backwards, and a NaN poisons the event queue.
fn assert_positive_interval(name: &str, interval_s: f64) {
    assert!(
        interval_s.is_finite() && interval_s > 0.0,
        "{name} must be positive and finite, got {interval_s}"
    );
}

/// An injected crash or recovery must land at a schedulable time on an
/// Aggregator the fleet has: the event queue rejects non-finite times
/// mid-run, and an unknown id would be counted as a failure (and, through
/// its recovery heartbeat, registered as a ghost Aggregator).
fn validate_injection(kind: &str, time_s: f64, aggregator: AggregatorId, fleet: &FleetSpec) {
    assert!(
        time_s.is_finite() && time_s >= 0.0,
        "{kind} time must be finite and non-negative, got {time_s}"
    );
    assert!(
        aggregator < fleet.aggregators,
        "{kind} targets aggregator {aggregator} but the fleet has {}",
        fleet.aggregators
    );
}

impl Scenario {
    /// Starts composing a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The composed tasks.
    pub fn tasks(&self) -> &[TaskConfig] {
        &self.tasks
    }

    /// Runs the scenario to completion and returns the unified report.
    ///
    /// With a non-sequential `RunLimits::parallelism` a worker pool is
    /// created for the duration of the run and client local training is
    /// executed speculatively off the event-loop thread; the report is
    /// bit-identical either way.
    pub fn run(&self) -> Report {
        let executor = Executor::from_parallelism(self.limits.parallelism);
        Run::new(self, executor).run()
    }
}

/// Draws `sample` distinct evaluation client ids without replacement.
pub(crate) fn sample_eval_ids(
    rng: &mut StdRng,
    population_len: usize,
    sample: usize,
) -> Vec<usize> {
    let sample = sample.min(population_len);
    let mut chosen = BTreeSet::new();
    let mut eval_ids = Vec::with_capacity(sample);
    while eval_ids.len() < sample {
        let id = rng.gen_range(0..population_len);
        if chosen.insert(id) {
            eval_ids.push(id);
        }
    }
    eval_ids
}

fn task_report(
    task_id: usize,
    name: String,
    reassignments: u64,
    runtime: TaskRuntime,
    virtual_hours: f64,
) -> TaskReport {
    let (metrics, final_params, final_version, final_loss, hours_to_target) = runtime.into_parts();
    let initial_loss = metrics
        .loss_curve
        .first()
        .map(|&(_, loss)| loss)
        .unwrap_or(f64::INFINITY);
    TaskReport {
        task_id,
        name,
        initial_loss,
        final_loss,
        hours_to_target,
        final_version,
        final_params,
        reassignments,
        virtual_hours,
        metrics,
    }
}

// ---------------------------------------------------------------------------
// The run loop.
// ---------------------------------------------------------------------------

/// Delay between a client being selected and starting to train.
const SELECTION_LATENCY_S: f64 = 2.0;

/// Interval of the utilization sampler of direct runs (fleet runs sample on
/// every control-plane tick instead).
const UTILIZATION_SAMPLE_INTERVAL_S: f64 = 60.0;

/// The control plane as of t=0: Coordinator created from the scenario
/// seed, Aggregators registered, tasks submitted in id order.
fn initial_control_plane(scenario: &Scenario, fleet: &FleetSpec) -> ControlPlaneService {
    let mut service = ControlPlaneService::new(fleet.heartbeat_timeout_s, scenario.seed ^ 0xC0FFEE);
    for id in 0..fleet.aggregators {
        service.register_aggregator(id, 0.0);
    }
    for (task_id, task) in scenario.tasks.iter().enumerate() {
        service.submit_task(TaskSpec::from_task_config(task_id, task));
    }
    service
}

/// Everything only a fleet run has: the control-plane service, Selectors,
/// Aggregator liveness, and the failover bookkeeping.  The route each
/// client received at selection time rides its finish event.
struct FleetPlane<'a> {
    fleet: &'a FleetSpec,
    service: ControlPlaneService,
    selectors: Vec<Selector>,
    selector_cursor: usize,
    crashed: BTreeSet<AggregatorId>,
    tiers: Vec<u8>,
    reassignments: Vec<u64>,
    stats: ControlPlaneStats,
    /// Whether a [`EventKind::ReconcileTick`] is already queued (the pass
    /// is scheduled at most once per divergence episode).
    reconcile_scheduled: bool,
    /// Whether the injected control-plane restore already happened.
    restored: bool,
}

impl<'a> FleetPlane<'a> {
    fn new(scenario: &Scenario, fleet: &'a FleetSpec) -> Self {
        let service = initial_control_plane(scenario, fleet);
        let mut selectors = vec![Selector::new(); fleet.selectors];
        for selector in &mut selectors {
            selector.refresh(service.coordinator());
        }
        let tiers = scenario
            .population
            .iter()
            .map(|device| capability_tier(&device))
            .collect();
        FleetPlane {
            fleet,
            service,
            selectors,
            selector_cursor: 0,
            crashed: BTreeSet::new(),
            tiers,
            reassignments: vec![0; scenario.tasks.len()],
            stats: ControlPlaneStats::default(),
            reconcile_scheduled: false,
            restored: false,
        }
    }

    /// If the scenario asks for a mid-run control-plane restore, throw away
    /// the live service state at the first control tick past the requested
    /// time and rebuild it from (checkpoint + log suffix).  Deliberately
    /// in-band (not an event): a restore must not change the event count,
    /// because its whole point is proving the run is bit-identical with and
    /// without it.
    fn maybe_restore(&mut self, now: SimTime, restore_s: Option<f64>) {
        if let Some(restore_s) = restore_s {
            if !self.restored && now >= restore_s {
                self.restored = true;
                self.service.restore_from_checkpoint();
                self.stats.coordinator_restores += 1;
            }
        }
    }

    /// Routes a client assigned to `aggregator` through the next Selector.
    /// Returns false when the client must retry later (stale Selector map
    /// or dead Aggregator).  A fresh Selector holds the Coordinator's map,
    /// so it routes to `aggregator` itself: no route changes without a
    /// sequence bump (`tests/control_plane_exhaustive.rs`).
    fn route(&mut self, aggregator: AggregatorId) -> bool {
        let selector = &self.selectors[self.selector_cursor % self.selectors.len()];
        self.selector_cursor += 1;

        // A Selector whose map sequence is behind the Coordinator's refuses
        // to route and asks the client to retry while it refreshes.
        if selector.is_stale(self.service.coordinator()) {
            self.stats.stale_route_refusals += 1;
            return false;
        }
        // The connection to a dead Aggregator fails outright; the client
        // retries at a later check-in.
        !self.crashed.contains(&aggregator)
    }

    /// Per-task reassignment counts and the end-of-run control-plane
    /// counters.
    fn into_report_parts(mut self) -> (Vec<u64>, ControlPlaneStats) {
        self.stats.final_map_sequence = self.service.coordinator().sequence();
        let counters = self.service.counters();
        self.stats.heartbeats = counters.heartbeats;
        self.stats.tasks_placed = counters.tasks_placed;
        self.stats.tasks_orphaned = counters.tasks_orphaned;
        self.stats.tasks_reconciled = counters.tasks_reconciled;
        self.stats.pending_task_submissions = counters.pending_task_submissions;
        self.stats.unknown_heartbeat_registrations = counters.unknown_heartbeat_registrations;
        self.stats.control_log_events = self.service.log().len();
        self.stats.checkpoints_taken = self.service.checkpoints_taken();
        self.stats.checkpoint_age_events = self.service.checkpoint_age_events();
        (self.reassignments, self.stats)
    }
}

/// One scenario run: the event queue, the shared device pool, one
/// [`TaskRuntime`] per task, and — on fleet runs — the control plane.
///
/// Without a plane, freed devices are replaced the moment they are freed
/// ([`Run::fill_demand`]) and utilization is sampled periodically; with
/// one, clients are assigned at control-plane ticks.  Everything else is
/// shared.
struct Run<'a> {
    scenario: &'a Scenario,
    rng: StdRng,
    queue: EventQueue,
    runtimes: Vec<TaskRuntime>,
    pool: ShardedSamplingPool,
    next_participation_id: u64,
    /// Latest aggregation deadline an `AggregatorDeadline` event has been
    /// scheduled for, per task (deadline strategies only; deadlines only
    /// move forward, so one value per task suffices).
    scheduled_deadlines: Vec<Option<f64>>,
    plane: Option<FleetPlane<'a>>,
    now: SimTime,
}

impl<'a> Run<'a> {
    fn new(scenario: &'a Scenario, executor: Option<Arc<Executor>>) -> Self {
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let plane = scenario
            .fleet
            .as_ref()
            .map(|fleet| FleetPlane::new(scenario, fleet));
        let mut runtimes = Vec::with_capacity(scenario.tasks.len());
        for (task_id, task) in scenario.tasks.iter().enumerate() {
            // Fixed evaluation sample.
            let eval_ids = sample_eval_ids(
                &mut rng,
                scenario.population.len(),
                scenario.eval.sample_size,
            );
            // Pinned fingerprints depend on both spellings: a direct run's
            // only runtime takes the scenario seed itself, a fleet run
            // salts it per task.
            let runtime_seed = match plane {
                None => scenario.seed,
                Some(_) => scenario.seed ^ ((task_id as u64 + 1) << 32),
            };
            let mut runtime = TaskRuntime::new(
                task.clone(),
                scenario.server_optimizer,
                Arc::clone(&scenario.trainers[task_id]),
                eval_ids,
                runtime_seed,
                scenario.limits.target_loss,
            );
            // All runtimes share one pool; participation ids are unique
            // across tasks, so jobs never collide.
            runtime.set_executor(executor.clone());
            runtime.set_trace_budget(scenario.limits.trace_budget);
            runtimes.push(runtime);
        }
        Run {
            scenario,
            rng,
            queue: EventQueue::new(),
            runtimes,
            pool: ShardedSamplingPool::new(scenario.population.len()),
            next_participation_id: 0,
            scheduled_deadlines: vec![None; scenario.tasks.len()],
            plane,
            now: 0.0,
        }
    }

    /// Queues the events every run starts from.  The order fixes their
    /// sequence numbers, which break ties between simultaneous events, so
    /// it is part of what the pinned fingerprints pin.
    fn schedule_initial_events(&mut self) {
        match &self.plane {
            None => {
                self.fill_demand(0);
                self.queue
                    .schedule(0.0, EventKind::EvaluateTask { task: 0 });
                self.queue.schedule(0.0, EventKind::SampleUtilization);
            }
            Some(plane) => {
                self.queue.schedule(0.0, EventKind::ControlPlaneTick);
                self.queue.schedule(
                    plane.fleet.selector_refresh_interval_s,
                    EventKind::RefreshSelectors,
                );
                for task in 0..self.runtimes.len() {
                    self.queue.schedule(0.0, EventKind::EvaluateTask { task });
                }
                for crash in &self.scenario.crashes {
                    self.queue.schedule(
                        crash.time_s,
                        EventKind::AggregatorCrash {
                            aggregator: crash.aggregator,
                        },
                    );
                }
                for recovery in &self.scenario.recoveries {
                    self.queue.schedule(
                        recovery.time_s,
                        EventKind::AggregatorRecover {
                            aggregator: recovery.aggregator,
                        },
                    );
                }
            }
        }
    }

    // No `_` arm may stand in for an event kind: rustc rejects a missing
    // variant (E0004), and these lints reject a wildcard that would swallow
    // a new one.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn run(mut self) -> Report {
        self.schedule_initial_events();

        let max_virtual_time_s = self.scenario.limits.max_virtual_time_s;
        let mut stop_reason = StopReason::MaxVirtualTime;
        let mut events_processed = 0u64;
        while let Some(event) = self.queue.pop() {
            if event.time > max_virtual_time_s {
                self.now = max_virtual_time_s;
                break;
            }
            self.now = event.time;
            events_processed += 1;
            // The un-scoped client and evaluation events are task 0's.
            let mut stop = None;
            match event.kind {
                EventKind::ClientFinished {
                    client_id,
                    participation_id,
                } => stop = self.client_finished(0, client_id, participation_id, None, None),
                EventKind::TaskClientFinished {
                    task,
                    client_id,
                    participation_id,
                    slot,
                    route,
                } => {
                    stop =
                        self.client_finished(task, client_id, participation_id, Some(slot), route)
                }
                EventKind::ClientFailed {
                    client_id: _,
                    participation_id,
                } => self.client_failed(0, participation_id, None),
                EventKind::TaskClientFailed {
                    task,
                    client_id: _,
                    participation_id,
                    slot,
                } => self.client_failed(task, participation_id, Some(slot)),
                EventKind::Evaluate => stop = self.evaluate(0),
                EventKind::EvaluateTask { task } => stop = self.evaluate(task),
                EventKind::SampleUtilization => self.sample_utilization(),
                EventKind::AggregatorDeadline { task } => stop = self.aggregator_deadline(task),
                // Control-plane events; no-ops on a run without a plane.
                EventKind::ControlPlaneTick => self.control_plane_tick(),
                EventKind::RefreshSelectors => self.refresh_selectors(),
                EventKind::AggregatorCrash { aggregator } => self.aggregator_crash(aggregator),
                EventKind::AggregatorRecover { aggregator } => self.aggregator_recover(aggregator),
                EventKind::ReconcileTick => self.reconcile_tick(),
            }
            if let Some(reason) = stop {
                stop_reason = reason;
                break;
            }
            self.schedule_deadline_checks();
        }

        // Final evaluation so every task's final loss reflects its last model.
        for runtime in &mut self.runtimes {
            runtime.evaluate(self.now);
        }
        let (reassignments, stats) = match self.plane {
            Some(plane) => plane.into_report_parts(),
            None => (vec![0; self.runtimes.len()], ControlPlaneStats::default()),
        };
        let virtual_hours = self.now / 3600.0;
        let mut reports = Vec::with_capacity(self.runtimes.len());
        for (task_id, runtime) in self.runtimes.into_iter().enumerate() {
            let name = runtime.config().name.clone();
            reports.push(task_report(
                task_id,
                name,
                reassignments[task_id],
                runtime,
                virtual_hours,
            ));
        }
        let collectors: Vec<&MetricsCollector> = reports.iter().map(|r| &r.metrics).collect();
        let fleet = FleetSummary::roll_up(&collectors, stats);
        Report {
            stop_reason,
            virtual_hours,
            events_processed,
            tasks: reports,
            fleet,
        }
    }

    // -- Participation lifecycle (every run) --------------------------------

    /// Starts `client_id` on `task`: draws its dropout and schedules how the
    /// participation ends.  `route` is the Aggregator a fleet run routed the
    /// client to; its upload is addressed there.
    fn start_participation(&mut self, task: usize, client_id: usize, route: Option<AggregatorId>) {
        let device = self.scenario.population.device(client_id);
        let participation_id = self.next_participation_id;
        self.next_participation_id += 1;

        let timeout = self.runtimes[task].config().client_timeout_s;
        let start = self.now + SELECTION_LATENCY_S;
        let drops_out = self.rng.gen::<f64>() < device.dropout_prob;
        let exceeds_timeout = device.exceeds_timeout(timeout);
        let execution_time = device.clamped_execution_time(timeout);

        let slot =
            self.runtimes[task].begin_participation(participation_id, client_id, execution_time);

        // A dropout fails partway through its (clamped) execution; a
        // straggler is aborted at the timeout.
        let fails_after = if drops_out {
            Some(self.rng.gen_range(0.05..0.95) * execution_time)
        } else if exceeds_timeout {
            Some(timeout)
        } else {
            None
        };
        if let Some(after) = fails_after {
            self.queue.schedule(
                start + after,
                EventKind::TaskClientFailed {
                    task,
                    client_id,
                    participation_id,
                    slot,
                },
            );
        } else {
            self.queue.schedule(
                start + execution_time,
                EventKind::TaskClientFinished {
                    task,
                    client_id,
                    participation_id,
                    slot,
                    route,
                },
            );
            // This participation will reach its finish event: start its
            // local training on the worker pool now (no-op sequentially).
            self.runtimes[task].prefetch_training(participation_id, slot);
        }
    }

    /// Direct runs only: selects idle devices uniformly at random until the
    /// task's demand is met or every device is already participating.
    fn fill_demand(&mut self, task: usize) {
        for _ in 0..self.runtimes[task].demand() {
            let Some(client_id) = self.pool.acquire_random(&mut self.rng) else {
                break; // population exhausted
            };
            self.start_participation(task, client_id, None);
        }
        self.runtimes[task].record_utilization(self.now);
    }

    /// Returns the devices of participations a server update aborted
    /// (staleness bound or round end) to the pool.
    fn release_freed(&mut self, freed: &[FreedClient]) {
        for freed in freed {
            self.pool.release(freed.client_id);
        }
    }

    /// Schedules exact readiness checks for tasks whose aggregator reports
    /// a new deadline (a buffer opened or reopened).  No-op for count-based
    /// strategies, which never report one.
    fn schedule_deadline_checks(&mut self) {
        for task in 0..self.runtimes.len() {
            if let Some(deadline) = self.runtimes[task].next_deadline_s() {
                if self.scheduled_deadlines[task] != Some(deadline) {
                    self.scheduled_deadlines[task] = Some(deadline);
                    self.queue.schedule(
                        deadline.max(self.now),
                        EventKind::AggregatorDeadline { task },
                    );
                }
            }
        }
    }

    /// A client's upload arrives; stops the run once the client-update
    /// budget is spent, or on the release that spends the task's ε budget.
    fn client_finished(
        &mut self,
        task: usize,
        client_id: usize,
        participation_id: u64,
        slot: Option<InFlightSlot>,
        route: Option<AggregatorId>,
    ) -> Option<StopReason> {
        self.receive_upload(task, client_id, participation_id, slot, route);
        if let Some(max) = self.scenario.limits.max_client_updates {
            let received: u64 = self.runtimes.iter().map(|r| r.metrics().comm_trips).sum();
            if received >= max {
                return Some(StopReason::MaxClientUpdates);
            }
        }
        self.privacy_stop(task)
    }

    /// One task overspending its ε stops the whole scenario: the operator
    /// must re-budget before any further release is defensible.
    fn privacy_stop(&self, task: usize) -> Option<StopReason> {
        self.runtimes[task]
            .privacy_budget_exhausted()
            .then_some(StopReason::PrivacyBudgetExhausted)
    }

    fn receive_upload(
        &mut self,
        task: usize,
        client_id: usize,
        participation_id: u64,
        slot: Option<InFlightSlot>,
        route: Option<AggregatorId>,
    ) {
        if let Some(plane) = &mut self.plane {
            // An upload addressed to a dead Aggregator is lost in transit;
            // the participation failed from the task's point of view.  One
            // a server update already aborted was no longer expected.
            if route.is_some_and(|aggregator| plane.crashed.contains(&aggregator)) {
                if let Some(freed_client) =
                    self.runtimes[task].client_failed(participation_id, slot)
                {
                    plane.stats.lost_in_transit_updates += 1;
                    self.pool.release(freed_client);
                }
                return;
            }
        }
        let outcome = match self.runtimes[task].offer_update(participation_id, slot, self.now) {
            Some(outcome) => outcome,
            None => return, // aborted earlier (round end, staleness, failover)
        };
        self.pool.release(client_id);
        self.release_freed(&outcome.freed);
        if self.plane.is_none() {
            if outcome.round_ended {
                self.runtimes[task].record_utilization(self.now);
            }
            self.fill_demand(task);
        }
    }

    /// A participation ended without an upload (dropout or timeout); its
    /// device is free again.
    fn client_failed(&mut self, task: usize, participation_id: u64, slot: Option<InFlightSlot>) {
        if let Some(freed_client) = self.runtimes[task].client_failed(participation_id, slot) {
            self.pool.release(freed_client);
            if self.plane.is_none() {
                self.fill_demand(task);
            }
        }
    }

    /// Evaluates `task`; stops the run once every task has reached the
    /// target loss.
    fn evaluate(&mut self, task: usize) -> Option<StopReason> {
        self.runtimes[task].evaluate(self.now);
        if self.runtimes.iter().all(|r| r.target_reached()) {
            return Some(StopReason::TargetLossReached);
        }
        self.queue.schedule(
            self.now + self.scenario.eval.interval_s,
            EventKind::EvaluateTask { task },
        );
        None
    }

    /// Exact timed release; a stale check (the buffer closed or moved since
    /// scheduling) polls as a no-op.  Stops the run when the release spends
    /// the task's ε budget.
    fn aggregator_deadline(&mut self, task: usize) -> Option<StopReason> {
        let outcome = self.runtimes[task].poll(self.now)?;
        self.release_freed(&outcome.freed);
        if self.plane.is_none() {
            self.fill_demand(task);
        }
        self.privacy_stop(task)
    }

    /// Direct runs' periodic utilization sample.
    fn sample_utilization(&mut self) {
        for runtime in &mut self.runtimes {
            runtime.record_utilization(self.now);
        }
        self.queue.schedule(
            self.now + UTILIZATION_SAMPLE_INTERVAL_S,
            EventKind::SampleUtilization,
        );
    }

    // -- Control plane (fleet runs) -----------------------------------------

    /// One control-plane sweep: heartbeats, failure detection and task
    /// reassignment, demand pooling, and client assignment.
    fn control_plane_tick(&mut self) {
        let Some(plane) = &mut self.plane else { return };
        let now = self.now;
        let tick_interval_s = plane.fleet.control_plane_interval_s;
        plane.maybe_restore(now, self.scenario.control_plane_restore_s);

        // Live Aggregators heartbeat; crashed ones stay silent.
        for id in 0..plane.fleet.aggregators {
            if !plane.crashed.contains(&id) {
                plane.service.heartbeat(id, now);
            }
        }

        // Failure detection: tasks moved to a surviving Aggregator lose
        // their buffered updates.  Tasks orphaned by total loss lose them
        // too (the buffers died with the Aggregator); their re-placement
        // waits for the reconcile pass triggered by the first recovery.
        let sweep = plane.service.detect_failures(now);
        for task in sweep.reassigned {
            self.runtimes[task].drop_buffered_updates();
            plane.reassignments[task] += 1;
            plane.stats.task_reassignments += 1;
        }
        for task in sweep.orphaned {
            self.runtimes[task].drop_buffered_updates();
        }

        // Demand pooling: every runtime reports its current client demand.
        for (task_id, runtime) in self.runtimes.iter().enumerate() {
            plane.service.report_demand(task_id, runtime.demand());
        }

        // Client assignment: idle devices check in and are assigned to
        // eligible tasks until demand is met (or no check-in succeeds).
        let total_demand: usize = (0..self.runtimes.len())
            .map(|task| plane.service.coordinator().effective_demand(task))
            .sum();
        let mut assigned = 0;
        let mut turned_away = Vec::new();
        let max_checkins = 4 * total_demand + 8;
        for _ in 0..max_checkins {
            if assigned >= total_demand {
                break;
            }
            let Some(client_id) = self.pool.acquire_random(&mut self.rng) else {
                break; // every device is already participating
            };
            if self.check_in(client_id) {
                assigned += 1;
            } else {
                turned_away.push(client_id);
            }
        }
        for client_id in turned_away {
            self.pool.release(client_id);
        }

        for runtime in &mut self.runtimes {
            runtime.record_utilization(now);
        }
        self.maybe_schedule_reconcile();
        self.queue
            .schedule(now + tick_interval_s, EventKind::ControlPlaneTick);
    }

    /// An idle device checks in: the Coordinator assigns it a task, the
    /// next Selector routes it to the task's Aggregator, and its
    /// participation starts.  Returns false when the device is turned away
    /// (no eligible task now, or a failed route).
    fn check_in(&mut self, client_id: usize) -> bool {
        let Some(plane) = &mut self.plane else {
            return false;
        };
        let Some((task, aggregator)) = plane.service.assign_client(plane.tiers[client_id]) else {
            return false;
        };
        if !plane.route(aggregator) {
            return false;
        }
        self.start_participation(task, client_id, Some(aggregator));
        true
    }

    fn refresh_selectors(&mut self) {
        let Some(plane) = &mut self.plane else { return };
        for selector in &mut plane.selectors {
            if selector.is_stale(plane.service.coordinator()) {
                selector.refresh(plane.service.coordinator());
            }
        }
        self.queue.schedule(
            self.now + plane.fleet.selector_refresh_interval_s,
            EventKind::RefreshSelectors,
        );
    }

    /// An injected Aggregator failure: the process dies and stops
    /// heartbeating; the Coordinator notices at a later tick.
    fn aggregator_crash(&mut self, aggregator: AggregatorId) {
        let Some(plane) = &mut self.plane else { return };
        if plane.crashed.insert(aggregator) {
            plane.stats.aggregator_failures += 1;
        }
    }

    /// An injected Aggregator recovery: the process comes back, heartbeats
    /// immediately (register-or-refresh), and any orphaned or pending tasks
    /// are re-placed by the reconcile pass the heartbeat makes possible.
    fn aggregator_recover(&mut self, aggregator: AggregatorId) {
        let Some(plane) = &mut self.plane else { return };
        if plane.crashed.remove(&aggregator) {
            plane.stats.aggregator_recoveries += 1;
            plane.service.heartbeat(aggregator, self.now);
            self.maybe_schedule_reconcile();
        }
    }

    /// A reconciliation pass: diff desired placement (every task routed to a
    /// healthy Aggregator) against actual routes and correct divergence.
    /// Re-placing an orphan counts as a reassignment; first placement of a
    /// pending task does not.
    fn reconcile_tick(&mut self) {
        let Some(plane) = &mut self.plane else { return };
        plane.reconcile_scheduled = false;
        for correction in plane.service.reconcile(self.now) {
            if correction.was_placed {
                plane.reassignments[correction.task] += 1;
                plane.stats.task_reassignments += 1;
            }
        }
    }

    /// Schedules a reconcile pass at the current instant iff one would do
    /// work and none is already queued.  Scenarios whose placement never
    /// diverges therefore process no extra events — a property the pinned
    /// historical fingerprints depend on.
    fn maybe_schedule_reconcile(&mut self) {
        let Some(plane) = &mut self.plane else { return };
        if !plane.reconcile_scheduled && plane.service.needs_reconciliation() {
            plane.reconcile_scheduled = true;
            self.queue.schedule(self.now, EventKind::ReconcileTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_core::adversary::AdversarySpec;
    use papaya_core::dp::DpConfig;
    use papaya_core::robust::RobustConfig;
    use papaya_data::population::PopulationConfig;

    fn population(n: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(n), 17)
    }

    #[test]
    fn direct_scenario_trains_one_task() {
        let report = Scenario::builder()
            .population(population(600))
            .task(TaskConfig::async_task("t", 32, 8))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(3)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxVirtualTime);
        let task = report.single();
        assert!(task.server_updates() > 0);
        assert!(task.final_loss < task.initial_loss);
        // The fleet roll-up covers the single task with zeroed control-plane
        // counters.
        assert_eq!(report.fleet.total_comm_trips, task.comm_trips());
        assert_eq!(report.fleet.control_plane, ControlPlaneStats::default());
    }

    #[test]
    fn fleet_scenario_trains_many_tasks() {
        let report = Scenario::builder()
            .population(population(1200))
            .task(TaskConfig::async_task("a", 48, 12))
            .task(TaskConfig::sync_task("s", 30, 0.3))
            .fleet(FleetSpec::new(2, 2))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(5)
            .build()
            .run();
        assert_eq!(report.tasks.len(), 2);
        for task in &report.tasks {
            assert!(task.comm_trips() > 0, "task {} got no updates", task.name);
            assert!(task.final_loss < task.initial_loss);
        }
        assert_eq!(
            report.fleet.total_comm_trips,
            report.tasks.iter().map(|t| t.comm_trips()).sum::<u64>()
        );
    }

    #[test]
    fn scenario_matches_for_same_seed() {
        let run = || {
            Scenario::builder()
                .population(population(500))
                .task(TaskConfig::async_task("t", 32, 8))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(11)
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.tasks[0].final_loss, b.tasks[0].final_loss);
        assert_eq!(a.tasks[0].comm_trips(), b.tasks[0].comm_trips());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let run = |parallelism: Parallelism| {
            Scenario::builder()
                .population(population(500))
                .task(TaskConfig::async_task("t", 32, 8))
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(0.5)
                        .with_parallelism(parallelism),
                )
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(11)
                .build()
                .run()
        };
        let sequential = run(Parallelism::sequential());
        assert!(sequential.events_processed > 0);
        for workers in [1, 3] {
            let parallel = run(Parallelism(workers));
            assert_eq!(
                sequential.fingerprint(),
                parallel.fingerprint(),
                "{workers} workers diverged from the sequential path"
            );
        }
    }

    #[test]
    fn parallel_secure_run_is_bit_identical_to_sequential() {
        // Mask plans are issued at selection time and consumed in event
        // order while training runs on the pool, so a session-cached secure
        // run must stay bit-identical at any thread count — including the
        // cache-hit/miss counters that feed the fingerprint.
        let run = |parallelism: Parallelism| {
            Scenario::builder()
                .population(population(300))
                .task(TaskConfig::async_task("t", 16, 4).with_secagg(SecAggMode::AsyncSecAgg))
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(0.25)
                        .with_parallelism(parallelism),
                )
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let sequential = run(Parallelism::sequential());
        let m = &sequential.single().metrics;
        assert!(m.secure.session_cache_misses > 0, "no first contacts");
        assert!(m.secure.session_cache_hits > 0, "cache never resumed");
        assert_eq!(m.secure.dh_exchanges_saved, m.secure.session_cache_hits);
        for workers in [1, 3] {
            let parallel = run(Parallelism(workers));
            assert_eq!(
                sequential.fingerprint(),
                parallel.fingerprint(),
                "{workers} workers diverged from the sequential secure path"
            );
        }
    }

    #[test]
    fn fleet_run_can_stop_on_total_client_updates() {
        let report = Scenario::builder()
            .population(population(800))
            .task(TaskConfig::async_task("a", 32, 8))
            .task(TaskConfig::async_task("b", 32, 8))
            .fleet(FleetSpec::new(2, 2))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(10.0)
                    .with_max_client_updates(300),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(9)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxClientUpdates);
        assert!(report.fleet.total_comm_trips >= 300);
        assert!(report.virtual_hours < 10.0);
    }

    #[test]
    fn capability_tier_boundaries_are_inclusive() {
        let device = |speed: f64| DeviceProfile {
            id: 0,
            num_examples: 10,
            speed_factor: speed,
            execution_time_s: 10.0,
            dropout_prob: 0.0,
        };
        assert_eq!(capability_tier(&device(1.25)), 2);
        assert_eq!(capability_tier(&device(1.2499)), 1);
        assert_eq!(capability_tier(&device(0.75)), 1);
        assert_eq!(capability_tier(&device(0.7499)), 0);
        assert_eq!(capability_tier(&device(0.0)), 0);
    }

    #[test]
    fn secagg_flag_is_honored_not_silently_ignored() {
        // Regression test for the era when `SecAggMode::AsyncSecAgg` was a
        // config flag the simulator never read: a secure run must actually
        // engage the protocol (masked updates, per-buffer key releases) and
        // must therefore fingerprint differently from the clear run.
        let run = |mode: SecAggMode| {
            Scenario::builder()
                .population(population(300))
                .task(TaskConfig::async_task("t", 16, 4).with_secagg(mode))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(SecAggMode::Disabled);
        let secure = run(SecAggMode::AsyncSecAgg);
        let m = &secure.single().metrics;
        assert!(m.secure.masked_updates > 0, "protocol never engaged");
        assert_eq!(m.secure.masked_updates, m.aggregated_updates);
        assert_eq!(m.secure.tsa_key_releases, m.server_updates);
        assert!(m.secure.tee_bytes_in > 0);
        assert_eq!(clear.single().metrics.secure.masked_updates, 0);
        assert_eq!(clear.single().metrics.secure.tsa_key_releases, 0);
        assert_ne!(clear.fingerprint(), secure.fingerprint());
    }

    #[test]
    fn dp_flag_is_honored_not_silently_ignored() {
        // A DP run must actually engage the pipeline (clip bookkeeping,
        // noised releases, a growing ε) and must therefore fingerprint
        // differently from the clear run.
        let run = |dp: Option<DpConfig>| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if let Some(dp) = dp {
                task = task.with_dp(dp);
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(None);
        let private = run(Some(DpConfig::new(10.0, 0.5).with_sampling_rate(0.1)));
        let m = &private.single().metrics;
        assert!(m.dp.releases > 0, "pipeline never engaged");
        assert_eq!(m.dp.releases, m.server_updates);
        assert_eq!(m.dp.accepted_updates, m.aggregated_updates);
        assert_eq!(m.dp.release_trace.len(), m.server_updates as usize);
        assert!(m.dp.cumulative_epsilon.is_finite() && m.dp.cumulative_epsilon > 0.0);
        assert_eq!(clear.single().metrics.dp.releases, 0);
        assert_ne!(clear.fingerprint(), private.fingerprint());
    }

    #[test]
    fn robust_flag_is_honored_not_silently_ignored() {
        // A defended run under attack must actually engage the defense
        // (estimator releases, reported telemetry, ground-truth attack
        // counts) and must therefore fingerprint differently from the
        // clear run.
        let run = |defended: bool| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if defended {
                task = task
                    .with_robust(RobustConfig::new(
                        papaya_core::RobustDefense::CoordinateMedian,
                    ))
                    .with_adversary(AdversarySpec::new(
                        0.3,
                        papaya_core::Malice::SignFlip { scale: 10.0 },
                    ));
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(false);
        let defended = run(true);
        let m = &defended.single().metrics;
        assert!(m.robust.estimator_releases > 0, "estimator never engaged");
        assert_eq!(m.robust.estimator_releases, m.server_updates);
        assert_eq!(m.robust.estimator_trace.len(), m.server_updates as usize);
        assert!(m.attacked_updates > 0, "the cohort never attacked");
        assert_eq!(m.attacks_by_label.values().sum::<u64>(), m.attacked_updates);
        assert_eq!(clear.single().metrics.robust.estimator_releases, 0);
        assert_ne!(clear.fingerprint(), defended.fingerprint());
    }

    #[test]
    fn neutral_defense_over_an_honest_population_is_bit_identical_to_clear() {
        // The neutral defense adds telemetry availability and nothing
        // else: with no attacker, the run — including its fingerprint —
        // must match the clear run bit-for-bit.
        let run = |neutral_defense: bool| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if neutral_defense {
                task = task.with_robust(RobustConfig::neutral());
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(false);
        let defended = run(true);
        assert_eq!(clear.fingerprint(), defended.fingerprint());
    }

    #[test]
    fn robust_and_adversary_builder_knobs_apply_to_every_task() {
        let robust =
            RobustConfig::new(papaya_core::RobustDefense::TrimmedMean { trim_fraction: 0.2 });
        let adversary = AdversarySpec::new(0.1, papaya_core::Malice::StalenessLiar);
        let scenario = Scenario::builder()
            .population(population(300))
            .task(
                TaskConfig::async_task("a", 16, 4)
                    .with_robust(robust)
                    .with_adversary(adversary),
            )
            .task(
                TaskConfig::sync_task("s", 12, 0.3)
                    .with_robust(robust)
                    .with_adversary(adversary),
            )
            .fleet(FleetSpec::new(1, 1))
            .seed(1)
            .build();
        for task in scenario.tasks() {
            assert_eq!(task.robust, Some(robust), "{}", task.name);
            assert_eq!(task.adversary, Some(adversary), "{}", task.name);
        }
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn invalid_robust_config_is_rejected_at_build() {
        Scenario::builder()
            .population(population(10))
            .task(
                TaskConfig::async_task("t", 4, 2).with_robust(RobustConfig::new(
                    papaya_core::RobustDefense::TrimmedMean { trim_fraction: 0.5 },
                )),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_adversary_spec_is_rejected_at_build() {
        Scenario::builder()
            .population(population(10))
            .task(
                TaskConfig::async_task("t", 4, 2)
                    .with_adversary(AdversarySpec::new(1.5, papaya_core::Malice::StalenessLiar)),
            )
            .build();
    }

    /// The run stopped on the release that spent the budget: every release
    /// but the last is under it, the last is at or over it.
    fn assert_stopped_on_the_exhausting_release(report: &Report, task: usize, budget: f64) {
        assert_eq!(report.stop_reason, StopReason::PrivacyBudgetExhausted);
        let dp = &report.tasks[task].metrics.dp;
        let (last, earlier) = dp.release_trace.split_last().expect("no release");
        assert!(earlier.iter().all(|r| r.cumulative_epsilon < budget));
        assert!(last.cumulative_epsilon >= budget);
        assert_eq!(dp.cumulative_epsilon, last.cumulative_epsilon);
        // ... and on that event, not on a later one that noticed.
        assert_eq!(report.virtual_hours, last.time_s / 3600.0);
        assert_eq!(dp.releases, report.tasks[task].server_updates());
    }

    fn budgeted_dp(budget: f64) -> DpConfig {
        DpConfig::new(10.0, 1.0)
            .with_target_delta(1e-5)
            .with_epsilon_budget(budget)
    }

    /// Runs under a virtual-time limit the ε budget must beat by far.
    fn run_until_the_budget_stops_it(scenario: ScenarioBuilder) -> Report {
        let report = scenario
            .limits(RunLimits::default().with_max_virtual_time_hours(50.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(22)
            .build()
            .run();
        assert!(report.virtual_hours < 50.0);
        report
    }

    #[test]
    fn privacy_budget_stops_the_run() {
        // A tight ε budget stops the run long before the virtual-time
        // limit, on the very upload whose release spends it.
        let report = run_until_the_budget_stops_it(
            Scenario::builder()
                .population(population(300))
                .task(TaskConfig::async_task("t", 16, 4).with_dp(budgeted_dp(20.0))),
        );
        assert_stopped_on_the_exhausting_release(&report, 0, 20.0);
    }

    #[test]
    fn privacy_budget_stops_the_run_on_a_deadline_release() {
        // The goal is out of reach, so every release — the exhausting one
        // included — comes from an `AggregatorDeadline` event, not from an
        // upload.
        let report =
            run_until_the_budget_stops_it(Scenario::builder().population(population(300)).task(
                TaskConfig::timed_hybrid_task("t", 16, 10_000, 300.0).with_dp(budgeted_dp(20.0)),
            ));
        assert!(report.single().metrics.dp.releases > 1);
        assert_stopped_on_the_exhausting_release(&report, 0, 20.0);
    }

    #[test]
    fn one_tasks_privacy_budget_stops_the_whole_fleet() {
        let report = run_until_the_budget_stops_it(
            Scenario::builder()
                .population(population(600))
                .task(TaskConfig::async_task("clear", 16, 4))
                .task(TaskConfig::async_task("private", 16, 4).with_dp(budgeted_dp(20.0)))
                .fleet(FleetSpec::new(2, 1)),
        );
        assert_stopped_on_the_exhausting_release(&report, 1, 20.0);
        // The clear task was training fine; it stops with its neighbour.
        assert!(report.tasks[0].server_updates() > 0);
        assert_eq!(report.tasks[0].metrics.dp, Default::default());
    }

    #[test]
    fn dp_builder_knob_applies_to_every_task() {
        let dp = DpConfig::new(5.0, 1.0);
        let scenario = Scenario::builder()
            .population(population(300))
            .task(TaskConfig::async_task("a", 16, 4).with_dp(dp))
            .task(TaskConfig::sync_task("s", 12, 0.3).with_dp(dp))
            .fleet(FleetSpec::new(1, 1))
            .seed(1)
            .build();
        for task in scenario.tasks() {
            assert_eq!(task.dp, Some(dp), "{}", task.name);
        }
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be non-negative")]
    fn invalid_dp_config_rejected_at_build() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_dp(DpConfig::new(1.0, -1.0)))
            .build();
    }

    #[test]
    #[should_panic(expected = "min_capability_tier is enforced by Selector routing")]
    fn capability_tier_without_fleet_rejected() {
        // A direct scenario has no Selectors, so a tier restriction would be
        // silently ignored — the builder must reject it instead.
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_min_capability_tier(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "client timeout must be positive and finite")]
    fn non_finite_timeout_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_timeout(f64::NAN))
            .build();
    }

    #[test]
    #[should_panic(expected = "aggregation goal must be positive")]
    fn zero_aggregation_goal_rejected() {
        let mut task = TaskConfig::async_task("t", 8, 2);
        task.aggregation_goal = 0;
        let _ = Scenario::builder()
            .population(population(100))
            .task(task)
            .build();
    }

    #[test]
    #[should_panic(expected = "round deadline must be positive and finite")]
    fn infinite_round_deadline_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::timed_hybrid_task("t", 8, 2, f64::INFINITY))
            .build();
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_concurrency_rejected() {
        let mut task = TaskConfig::async_task("t", 8, 2);
        task.concurrency = 0;
        let _ = Scenario::builder()
            .population(population(100))
            .task(task)
            .build();
    }

    #[test]
    #[should_panic(expected = "drive exactly one task")]
    fn multi_task_without_fleet_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("a", 8, 2))
            .task(TaskConfig::async_task("b", 8, 2))
            .build();
    }

    #[test]
    #[should_panic(expected = "crash injection requires a fleet")]
    fn crash_without_fleet_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("a", 8, 2))
            .crash_at(10.0, 0)
            .build();
    }

    fn one_task() -> ScenarioBuilder {
        Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("a", 8, 2))
    }

    fn two_aggregator_fleet() -> ScenarioBuilder {
        one_task().fleet(FleetSpec::new(2, 1))
    }

    #[test]
    #[should_panic(expected = "eval.interval_s must be positive and finite")]
    fn zero_eval_interval_rejected() {
        // Would reschedule `Evaluate` at `now + 0` forever.
        let _ = one_task()
            .eval(EvalPolicy::default().with_interval_s(0.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "eval.sample_size must be positive")]
    fn zero_eval_sample_size_rejected() {
        // Used to evaluate one client: sampling clamped 0 up to 1.
        let _ = one_task()
            .eval(EvalPolicy::default().with_sample_size(0))
            .build();
    }

    #[test]
    #[should_panic(expected = "control_plane_interval_s must be positive and finite")]
    fn zero_control_plane_interval_rejected() {
        let mut fleet = FleetSpec::new(2, 1);
        fleet.control_plane_interval_s = 0.0;
        let _ = one_task().fleet(fleet).build();
    }

    #[test]
    #[should_panic(expected = "selector_refresh_interval_s must be positive and finite")]
    fn negative_selector_refresh_interval_rejected() {
        let mut fleet = FleetSpec::new(2, 1);
        fleet.selector_refresh_interval_s = -45.0;
        let _ = one_task().fleet(fleet).build();
    }

    #[test]
    #[should_panic(expected = "crash time must be finite and non-negative")]
    fn non_finite_crash_time_rejected() {
        // Used to pass `build()` and panic inside `run()` at
        // `EventQueue::schedule`.
        let _ = two_aggregator_fleet().crash_at(f64::NAN, 0).build();
    }

    #[test]
    #[should_panic(expected = "recovery time must be finite and non-negative")]
    fn negative_recovery_time_rejected() {
        let _ = two_aggregator_fleet()
            .crash_at(10.0, 0)
            .recover_at(-1.0, 0)
            .build();
    }

    #[test]
    #[should_panic(expected = "crash targets aggregator 9 but the fleet has 2")]
    fn crash_of_unknown_aggregator_rejected() {
        let _ = two_aggregator_fleet().crash_at(10.0, 9).build();
    }

    #[test]
    #[should_panic(expected = "recovery targets aggregator 9 but the fleet has 2")]
    fn recovery_of_unknown_aggregator_rejected() {
        // Used to register ghost Aggregator 9 through its recovery
        // heartbeat.
        let _ = two_aggregator_fleet().recover_at(20.0, 9).build();
    }

    #[test]
    fn stop_reasons_display_readably() {
        assert_eq!(
            StopReason::TargetLossReached.to_string(),
            "target loss reached"
        );
        assert_eq!(
            StopReason::MaxVirtualTime.to_string(),
            "virtual-time budget exhausted"
        );
        assert_eq!(
            StopReason::MaxClientUpdates.to_string(),
            "client-update budget exhausted"
        );
        assert_eq!(
            StopReason::PrivacyBudgetExhausted.to_string(),
            "privacy budget exhausted"
        );
    }

    #[test]
    fn timed_hybrid_strategy_runs_end_to_end() {
        // Aggregation goal far above what the concurrency can deliver: only
        // the deadline can release buffers, so every server update proves
        // the round deadline works through the whole stack.
        let report = Scenario::builder()
            .population(population(400))
            .task(TaskConfig::timed_hybrid_task("hybrid", 24, 10_000, 240.0))
            .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(7)
            .build()
            .run();
        let task = report.single();
        // 2 h / 240 s deadline ≈ 30 release windows; allow slack for
        // arrival gaps.
        assert!(
            task.server_updates() > 15,
            "deadline releases did not happen on time: {}",
            task.server_updates()
        );
        assert!(task.final_loss < task.initial_loss);
    }
}
