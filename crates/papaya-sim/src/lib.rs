//! Discrete-event simulation of the PAPAYA production system.
//!
//! The paper's evaluation runs on ~100 million phones; this crate reproduces
//! the *system behaviour* — client selection, participation, stragglers,
//! over-selection, buffered asynchronous aggregation, utilization, failure
//! recovery — as a deterministic discrete-event simulation over the synthetic
//! populations from `papaya-data`, while delegating the learning itself to a
//! [`papaya_core::client::ClientTrainer`] (the real LSTM or the fast
//! surrogate objective).
//!
//! * [`events`] — the simulated clock and event queue;
//! * [`executor`] — the deterministic parallel client-training pool: local
//!   training runs speculatively on worker threads while the event loop
//!   stays sequential, so reports are bit-identical at any thread count;
//! * [`scenario`] — the entrypoint: one [`Scenario`] builder composing
//!   tasks, population, fleet size, crash schedule, eval policy, and seed,
//!   and one event loop that runs every workload shape — with or without a
//!   control plane — into one [`Report`];
//! * [`metrics`] — traces and summary statistics (utilization, communication
//!   trips, server updates per hour, participation distributions);
//! * `ledger` — the accounting laws every finished [`Report`] obeys,
//!   checked by [`Report::audit`];
//! * `task_runtime` — per-task server-side state (model, optimizer, a
//!   `Box<dyn Aggregator>` strategy, in-flight participations, per-task
//!   metrics) driven by the scenario loop;
//! * [`cluster`] — the control plane: Coordinator, Selectors, persistent
//!   Aggregators, task assignment, heartbeats, and failure recovery
//!   (Sections 4, 6 and Appendix E.4);
//! * [`control_plane`] — the Coordinator promoted to an event-sourced
//!   service: an append-only event log with checkpoint/replay restore, a
//!   reconciliation pass that re-places orphaned and pending tasks, and a
//!   Prometheus-style counter surface;
//! * [`sampling`] — O(1) uniform sampling of free devices from a shared,
//!   possibly saturated population.
//!
//! # Example
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
//! assert!(report.tasks[0].server_updates() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cluster;
pub mod control_plane;
pub mod events;
pub mod executor;
mod id_table;
pub(crate) mod ledger;
pub mod metrics;
pub mod sampling;
pub mod scenario;
mod slab;
pub(crate) mod task_runtime;

pub use control_plane::{ControlEvent, ControlPlaneService, Correction, EventLog};
pub use executor::{Executor, Parallelism};
pub use scenario::{
    EvalPolicy, FleetSpec, InjectedCrash, Report, RunLimits, Scenario, ScenarioBuilder, StopReason,
    TaskReport,
};
pub use task_runtime::{ServerOptimizerKind, TaskRuntime};

// Behaviour tests of the run loop on direct and fleet scenarios.  The
// modules keep the names of the front ends these tests once drove, so each
// test keeps the id (`engine::tests::*`, `multi_task::tests::*`) it has had
// in CI history.
#[cfg(test)]
#[path = "scenario_direct_tests.rs"]
mod engine;
#[cfg(test)]
#[path = "scenario_fleet_tests.rs"]
mod multi_task;
