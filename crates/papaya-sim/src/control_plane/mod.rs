//! The control plane as an event-sourced, reconciled service.
//!
//! PR 10 promotes the Coordinator from simulation-internal state into the
//! shape the paper's production counterpart has (Sections 4, 6.2–6.3): an
//! observable, recoverable service.  Three pieces:
//!
//! * `event_log` — an append-only, deterministic log of every
//!   control-plane state mutation.  Replaying the log through the single
//!   apply dispatcher reconstructs the exact Coordinator state, RNG
//!   included, so crash recovery is replay.
//! * `reconcile` — a declarative reconciliation pass that diffs desired
//!   placement (every submitted task on a healthy Aggregator) against
//!   actual routes and emits corrective placements.  This is what makes
//!   the orphaned-task class of bug structurally impossible: any route to
//!   a dead Aggregator, however it came about, is divergence to repair.
//! * `service` — the [`service::ControlPlaneService`] facade that owns
//!   the Coordinator, logs every mutation before applying it, checkpoints
//!   on a fixed cadence, restores from (checkpoint + log suffix), and
//!   exports Prometheus-style text counters and a fleet-status snapshot.
//!
//! See `docs/CONTROL_PLANE.md` for the log format, checkpoint semantics,
//! and the reconciliation invariants.

pub(crate) mod event_log;
pub(crate) mod reconcile;
pub(crate) mod service;

pub use event_log::{ControlEvent, EventLog};
pub use reconcile::Correction;
pub use service::{Checkpoint, ControlPlaneService, ServiceCounters};
