//! The simulated clock and event queue.
//!
//! Virtual time is measured in seconds as `f64`.  Events are totally ordered
//! by `(time, sequence_number)` so simulations are deterministic even when
//! several events share a timestamp.

use crate::cluster::AggregatorId;
use crate::slab::Slab;
use crate::task_runtime::InFlightSlot;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in seconds.
pub(crate) type SimTime = f64;

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
        /// Where the task's runtime holds the participation.
        slot: InFlightSlot,
        /// Fleet runs: the Aggregator the client was routed to at selection
        /// time, which the upload is addressed to.
        route: Option<AggregatorId>,
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
        /// Where the task's runtime holds the participation.
        slot: InFlightSlot,
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

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Firing time in virtual seconds.
    pub time: SimTime,
    /// The event payload.
    pub(crate) kind: EventKind,
}

/// A pending event as the heap sees it: the 128-bit integer
/// `time_key << 64 | seq`, which orders events as `(time, seq)` does, and
/// the slot of the event's time and payload.  The key is held as two words
/// and compared high word first: a `u128` field would align the entry to 16
/// bytes and pad it from 24 to 32.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    time_key: u64,
    seq: u64,
    slot: u32,
}

/// An integer whose order is `time`'s numeric order.  `-0.0` is folded into
/// `+0.0`, which it equals numerically, so `seq` breaks their tie; the
/// sign-magnitude bits are then mapped to an unsigned order, as
/// `f64::total_cmp` does.  Agrees with `partial_cmp` on every finite time.
fn time_key(time: SimTime) -> u64 {
    let bits = if time == 0.0 { 0 } else { time.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A deterministic future-event list.
///
/// The heap holds integer keys and a slot index, not events: the time and
/// payload of each pending event sit in a slab until it pops, so a sift
/// moves 24-byte entries and compares integers only.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Pending>>,
    payloads: Slab<(SimTime, EventKind)>,
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
        let slot = self.payloads.insert((time, kind));
        self.heap.push(Reverse(Pending {
            time_key: time_key(time),
            seq,
            slot,
        }));
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(Pending { slot, .. }) = self.heap.pop()?;
        let (time, kind) = self.payloads.remove(slot)?;
        Some(Event { time, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl EventQueue {
        /// Number of pending events.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns true when no events are pending.
        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, EventKind::EvaluateTask { task: 0 });
        q.schedule(1.0, EventKind::SampleUtilization);
        q.schedule(3.0, EventKind::EvaluateTask { task: 0 });
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
        q.schedule(1.0, EventKind::SampleUtilization);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, EventKind::SampleUtilization);
    }

    /// An event and its schedule sequence number, ordered the way the queue
    /// ordered events when its heap held them whole: by `partial_cmp` on the
    /// time, then by the sequence number, inverted for the max-heap.  The
    /// oracle for the integer key.
    struct ByTimeThenSeq(Event, u64);

    impl PartialEq for ByTimeThenSeq {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for ByTimeThenSeq {}
    impl PartialOrd for ByTimeThenSeq {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ByTimeThenSeq {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .time
                .partial_cmp(&self.0.time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.1.cmp(&self.1))
        }
    }

    /// Times that tie often, both zeros, negative values, subnormals and the
    /// extremes of the finite range.
    struct TimeStrategy;

    impl Strategy for TimeStrategy {
        type Value = f64;
        fn sample(&self, rng: &mut proptest::TestRng) -> f64 {
            const EDGES: [f64; 10] = [
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                5e-324,
                -5e-324,
                f64::MAX,
                f64::MIN,
                1e-300,
                -1e300,
            ];
            match (0u32..4).sample(rng) {
                0 => EDGES[(0usize..EDGES.len()).sample(rng)],
                1 => (-1.0e12f64..1.0e12).sample(rng),
                // A coarse grid, so most draws tie with an earlier one.
                _ => (-8i32..8).sample(rng) as f64 * 0.5,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Schedules interleaved with pops give the same events, in the
        /// same order, with the same time bits, as a heap of whole events
        /// under the old comparator.
        #[test]
        fn pops_match_a_heap_of_whole_events(
            ops in collection::vec((TimeStrategy, 0u32..100), 1..400),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let event = |i: usize| EventKind::ClientFinished {
                client_id: i,
                participation_id: i as u64,
            };
            let same = |popped: Option<Event>, expected: Option<ByTimeThenSeq>| {
                match (popped, expected) {
                    (None, None) => true,
                    // Every scheduled kind is distinct, so equal kinds mean
                    // the same event.
                    (Some(a), Some(ByTimeThenSeq(b, _))) => {
                        a.time.to_bits() == b.time.to_bits() && a.kind == b.kind
                    }
                    _ => false,
                }
            };
            let mut seq = 0;
            for (i, &(time, roll)) in ops.iter().enumerate() {
                if roll < 35 {
                    prop_assert!(same(queue.pop(), reference.pop()), "pop {i} diverged");
                } else {
                    queue.schedule(time, event(i));
                    reference.push(ByTimeThenSeq(
                        Event {
                            time,
                            kind: event(i),
                        },
                        seq,
                    ));
                    seq += 1;
                }
                prop_assert_eq!(queue.len(), reference.len());
            }
            while !reference.is_empty() {
                prop_assert!(same(queue.pop(), reference.pop()), "drain diverged");
            }
            prop_assert!(queue.pop().is_none() && queue.is_empty());
        }
    }
}
