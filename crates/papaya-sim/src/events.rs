//! The simulated clock and event queue.
//!
//! Virtual time is measured in seconds as `f64`.  Events are totally ordered
//! by `(time, sequence_number)` so simulations are deterministic even when
//! several events share a timestamp.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Virtual time in seconds.
pub type SimTime = f64;

/// What happens when an event fires.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// [`EventKind::TaskClientFinished`] for task 0.
    ClientFinished {
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation (ties the finish to its start).
        participation_id: u64,
    },
    /// [`EventKind::TaskClientFailed`] for task 0.
    ClientFailed {
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation.
        participation_id: u64,
    },
    /// [`EventKind::EvaluateTask`] for task 0.
    Evaluate,
    /// Periodic utilization sample (direct runs; fleet runs sample at
    /// control-plane ticks).
    SampleUtilization,
    /// A client participating in `task` finished local training and uploads
    /// its update.
    TaskClientFinished {
        /// The task the client trained for.
        task: usize,
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation.
        participation_id: u64,
    },
    /// A client participating in `task` failed (dropout, crash, or timeout
    /// abort).
    TaskClientFailed {
        /// The task the client was training for.
        task: usize,
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation.
        participation_id: u64,
    },
    /// Periodic evaluation of one task's global model.
    EvaluateTask {
        /// The task to evaluate.
        task: usize,
    },
    /// Fleet: periodic control-plane sweep — live Aggregators heartbeat,
    /// the Coordinator detects failures and reassigns orphaned tasks, client
    /// demand is pooled and new clients are assigned.
    ControlPlaneTick,
    /// Fleet: periodic Selector refresh of the Coordinator's assignment
    /// map (between a reassignment and the next refresh, stale Selectors
    /// refuse to route).
    RefreshSelectors,
    /// Fleet: injected failure — the given Aggregator process dies and
    /// stops heartbeating; its buffered state is lost.
    AggregatorCrash {
        /// The Aggregator that dies.
        aggregator: usize,
    },
    /// Fleet: injected recovery — a crashed Aggregator comes back and
    /// heartbeats immediately; orphaned tasks are re-placed on it by the
    /// reconcile pass the heartbeat triggers.
    AggregatorRecover {
        /// The Aggregator that comes back.
        aggregator: usize,
    },
    /// Fleet: a control-plane reconciliation pass — the Coordinator
    /// diffs desired placement (every task on a healthy Aggregator) against
    /// actual routes and emits corrective placements.  Scheduled only when
    /// the pass would do work, so scenarios that never diverge process no
    /// extra events.
    ReconcileTick,
    /// A deadline-based aggregation strategy may be ready without a new
    /// arrival: check the task's aggregator and release if due.
    AggregatorDeadline {
        /// The task whose aggregator reached its deadline.
        task: usize,
    },
}

impl fmt::Display for EventKind {
    /// Human-readable event description for logs and example/bench output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::ClientFinished {
                client_id,
                participation_id,
            } => write!(
                f,
                "client {client_id} finished (participation {participation_id})"
            ),
            EventKind::ClientFailed {
                client_id,
                participation_id,
            } => write!(
                f,
                "client {client_id} failed (participation {participation_id})"
            ),
            EventKind::Evaluate => write!(f, "evaluate global model"),
            EventKind::SampleUtilization => write!(f, "sample utilization"),
            EventKind::TaskClientFinished {
                task,
                client_id,
                participation_id,
            } => write!(
                f,
                "task {task}: client {client_id} finished (participation {participation_id})"
            ),
            EventKind::TaskClientFailed {
                task,
                client_id,
                participation_id,
            } => write!(
                f,
                "task {task}: client {client_id} failed (participation {participation_id})"
            ),
            EventKind::EvaluateTask { task } => write!(f, "evaluate task {task}"),
            EventKind::ControlPlaneTick => {
                write!(f, "control-plane sweep (heartbeats, demand, assignment)")
            }
            EventKind::RefreshSelectors => write!(f, "refresh stale selector maps"),
            EventKind::AggregatorCrash { aggregator } => {
                write!(f, "aggregator {aggregator} crashes")
            }
            EventKind::AggregatorRecover { aggregator } => {
                write!(f, "aggregator {aggregator} recovers")
            }
            EventKind::ReconcileTick => {
                write!(f, "control-plane reconcile pass (re-place divergent tasks)")
            }
            EventKind::AggregatorDeadline { task } => {
                write!(f, "task {task}: aggregation deadline check")
            }
        }
    }
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Firing time in virtual seconds.
    pub time: SimTime,
    /// Monotonic sequence number breaking ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, EventKind::Evaluate);
        q.schedule(1.0, EventKind::SampleUtilization);
        q.schedule(3.0, EventKind::Evaluate);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(
            2.0,
            EventKind::ClientFinished {
                client_id: 1,
                participation_id: 10,
            },
        );
        q.schedule(
            2.0,
            EventKind::ClientFinished {
                client_id: 2,
                participation_id: 11,
            },
        );
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_eq!(
            first.kind,
            EventKind::ClientFinished {
                client_id: 1,
                participation_id: 10
            }
        );
        assert_eq!(
            second.kind,
            EventKind::ClientFinished {
                client_id: 2,
                participation_id: 11
            }
        );
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, EventKind::Evaluate);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn control_plane_events_display_readably() {
        assert_eq!(
            EventKind::AggregatorCrash { aggregator: 2 }.to_string(),
            "aggregator 2 crashes"
        );
        assert_eq!(
            EventKind::ControlPlaneTick.to_string(),
            "control-plane sweep (heartbeats, demand, assignment)"
        );
        assert_eq!(
            EventKind::RefreshSelectors.to_string(),
            "refresh stale selector maps"
        );
        assert_eq!(
            EventKind::TaskClientFinished {
                task: 1,
                client_id: 7,
                participation_id: 9
            }
            .to_string(),
            "task 1: client 7 finished (participation 9)"
        );
        assert_eq!(
            EventKind::AggregatorRecover { aggregator: 2 }.to_string(),
            "aggregator 2 recovers"
        );
        assert_eq!(
            EventKind::ReconcileTick.to_string(),
            "control-plane reconcile pass (re-place divergent tasks)"
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, EventKind::Evaluate);
    }
}
