//! The append-only control-plane event log.
//!
//! Every state mutation of the Coordinator is recorded as a
//! [`ControlEvent`] *before* it is applied, and application happens through
//! one exhaustive dispatcher ([`crate::control_plane::service`]), so live
//! execution and replay share the same code path.  Because the Coordinator
//! is deterministic (its RNG is part of its state), replaying a log from
//! [`ControlEvent::Init`] reconstructs the live state bit-for-bit — which
//! makes crash recovery replay, and is proven by property tests.
//!
//! The log supports *compaction*: once a checkpoint exists at offset `k`,
//! everything before `k` can be dropped and the log remembers only that
//! `base_offset = k`.  Restore never needs more than (checkpoint + suffix),
//! so a long run keeps O(checkpoint interval) events in memory.

use crate::cluster::{AggregatorId, TaskId, TaskSpec};

/// One logged control-plane state mutation.
///
/// Fields carry exactly what the apply dispatcher needs to repeat the
/// mutation deterministically; outcomes (placements, sweep results) are
/// *not* logged because they are recomputed identically on replay.
#[derive(Clone, Debug, PartialEq)]
pub enum ControlEvent {
    /// Log genesis: (re)creates the Coordinator from scratch.  Always the
    /// first event; replay of any full log starts here.
    Init {
        /// Heartbeat lease length handed to the Coordinator.
        heartbeat_timeout_s: f64,
        /// Seed of the Coordinator's assignment RNG.
        seed: u64,
    },
    /// An Aggregator registered (fleet bring-up).
    AggregatorRegistered {
        /// The registering Aggregator.
        id: AggregatorId,
        /// Virtual registration time.
        time_s: f64,
    },
    /// An Aggregator heartbeat (refresh, recovery, or implicit
    /// registration of an unknown sender — the outcome is recomputed on
    /// replay, not stored).
    Heartbeat {
        /// The sender.
        id: AggregatorId,
        /// Virtual send time.
        time_s: f64,
    },
    /// A task was submitted for placement.
    TaskSubmitted {
        /// The placement-plane description of the task.
        spec: TaskSpec,
    },
    /// An Aggregator reported the client demand of one of its tasks.
    DemandReported {
        /// The task the demand belongs to.
        task: TaskId,
        /// Clients wanted right now.
        demand: usize,
    },
    /// A device checked in and asked for an assignment (consumes one RNG
    /// draw when any task is eligible).
    ClientCheckIn {
        /// The device's capability tier.
        capability_tier: u8,
    },
    /// A failure-detection sweep ran.
    FailureSweep {
        /// Virtual sweep time.
        time_s: f64,
    },
    /// A reconciliation pass ran.
    Reconcile {
        /// Virtual pass time.
        time_s: f64,
    },
}

/// The append-only log, possibly compacted behind a checkpoint.
///
/// Offsets are *absolute*: event `i` keeps offset `i` forever, compaction
/// only forgets storage.  `len()` is the absolute length (total events ever
/// appended), not the retained count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    base_offset: u64,
    events: Vec<ControlEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends one event and returns its absolute offset.
    pub(crate) fn append(&mut self, event: ControlEvent) -> u64 {
        let offset = self.len();
        self.events.push(event);
        offset
    }

    /// Absolute log length: total events ever appended.
    pub(crate) fn len(&self) -> u64 {
        self.base_offset + self.events.len() as u64
    }

    /// Offset of the oldest retained event.
    pub(crate) fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Retained events from absolute offset `from` (inclusive) to the end.
    ///
    /// # Panics
    ///
    /// Panics if `from` lies before the compaction horizon — those events
    /// no longer exist anywhere.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = &ControlEvent> {
        assert!(
            from >= self.base_offset,
            "offset {from} is behind the compaction horizon {}",
            self.base_offset
        );
        let skip = (from - self.base_offset) as usize;
        self.events.iter().skip(skip)
    }

    /// Drops storage for every event before absolute offset `upto`
    /// (typically the latest checkpoint's offset).  Offsets are preserved.
    pub(crate) fn compact_to(&mut self, upto: u64) {
        let upto = upto.clamp(self.base_offset, self.len());
        let drop = (upto - self.base_offset) as usize;
        self.events.drain(..drop);
        self.base_offset = upto;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventLog {
        /// Whether nothing has ever been appended.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Number of events currently held in memory.
        pub(crate) fn retained(&self) -> usize {
            self.events.len()
        }
    }

    fn heartbeat(id: AggregatorId) -> ControlEvent {
        ControlEvent::Heartbeat {
            id,
            time_s: id as f64,
        }
    }

    #[test]
    fn offsets_are_stable_across_compaction() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        for id in 0..10 {
            assert_eq!(log.append(heartbeat(id)), id as u64);
        }
        assert_eq!(log.len(), 10);
        log.compact_to(6);
        assert_eq!(log.len(), 10);
        assert_eq!(log.base_offset(), 6);
        assert_eq!(log.retained(), 4);
        let suffix: Vec<_> = log.iter_from(7).cloned().collect();
        assert_eq!(suffix, vec![heartbeat(7), heartbeat(8), heartbeat(9)]);
        // Appending after compaction continues the absolute numbering.
        assert_eq!(log.append(heartbeat(10)), 10);
        // Compacting backwards or past the end is clamped, not an error.
        log.compact_to(2);
        assert_eq!(log.base_offset(), 6);
        log.compact_to(1_000);
        assert_eq!(log.base_offset(), 11);
        assert_eq!(log.retained(), 0);
    }

    #[test]
    #[should_panic(expected = "compaction horizon")]
    fn reading_behind_the_horizon_panics() {
        let mut log = EventLog::new();
        for id in 0..4 {
            log.append(heartbeat(id));
        }
        log.compact_to(2);
        let _ = log.iter_from(1).count();
    }
}
