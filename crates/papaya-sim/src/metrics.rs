//! Metrics collected during a simulation run.

use std::collections::BTreeMap;

use papaya_core::dp::DpTelemetry;
use papaya_core::robust::RobustTelemetry;
use papaya_core::secure::{SecureTelemetry, SecureTimings};
use papaya_core::trace::{DecimatedTrace, Digest, TraceBudget, TraceSample};
use papaya_data::stats::{ks_two_sample, KsTestResult};

/// One client participation whose update was *aggregated* (or discarded),
/// used for the sampling-bias analysis of Section 7.4.
#[derive(Clone, Debug, PartialEq)]
pub struct ParticipationRecord {
    /// Device id.
    pub client_id: usize,
    /// Execution time of the participation in seconds.
    pub execution_time_s: f64,
    /// Number of training examples on the device.
    pub num_examples: usize,
    /// Whether the update was folded into a server model update (false for
    /// updates discarded by over-selection or staleness rejection).
    pub aggregated: bool,
}

impl TraceSample for ParticipationRecord {
    fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.client_id as u64);
        digest.word(self.execution_time_s.to_bits());
        digest.word(self.num_examples as u64);
        digest.word(self.aggregated as u64);
    }
}

/// Raw traces and counters produced by one simulation run.
///
/// Every trace is a [`DecimatedTrace`]; the run's fingerprint hashes each
/// one's digest and offer count, never its samples.  The per-event traces
/// and the round durations keep a stride sample of at most the run's
/// [`TraceBudget`] (4 096 by default), so metrics memory is O(budget)
/// however long the run; the per-release telemetry traces stay unbounded.
/// Counters are exact and the two means divide running totals by offer
/// counts; only the participation distributions read the stride sample.
/// Write `utilization_trace` and `round_durations_s` only through
/// [`record_utilization`](Self::record_utilization) and
/// [`record_round_duration`](Self::record_round_duration): a direct write
/// skips the totals and skews the means.
#[derive(Clone, Debug, Default)]
pub struct MetricsCollector {
    /// `(virtual_seconds, active_clients)` samples.
    pub utilization_trace: DecimatedTrace<(f64, usize)>,
    /// Active clients summed over every utilization sample offered.
    pub(crate) active_clients_sum: u64,
    /// `(virtual_hours, population loss)` samples.
    pub loss_curve: DecimatedTrace<(f64, f64)>,
    /// Client updates received at the server ("communication trips").
    pub comm_trips: u64,
    /// Updates discarded because the round had already closed
    /// (over-selection waste).
    pub discarded_updates: u64,
    /// Updates rejected because they exceeded the staleness bound.
    pub rejected_stale_updates: u64,
    /// Client participations that failed (dropout, crash, timeout abort).
    pub failed_participations: u64,
    /// Clients aborted because the round ended while they were still training.
    pub aborted_by_round_end: u64,
    /// Server model updates performed.
    pub server_updates: u64,
    /// Completed synchronous round durations in seconds.
    pub round_durations_s: DecimatedTrace<f64>,
    /// Every round duration offered, summed in offer order.
    pub(crate) round_duration_sum_s: f64,
    /// Participation records for bias analysis.
    pub participations: DecimatedTrace<ParticipationRecord>,
    /// Sum of staleness over aggregated updates.
    pub staleness_sum: u64,
    /// Count of aggregated updates (denominator for mean staleness).
    pub aggregated_updates: u64,
    /// Buffered updates lost when the Aggregator holding this task died
    /// before reaching an aggregation goal.
    pub lost_buffered_updates: u64,
    /// Secure-aggregation telemetry, copied from the task's
    /// [`SecureAggregator`](papaya_core::secure::SecureAggregator) when the
    /// report is assembled (empty while the run is in progress): masked
    /// update counts, per-buffer TSA key releases (always equal to
    /// [`server_updates`](MetricsCollector::server_updates) for a secure
    /// task — the TSA never unmasks a partial buffer), crash-time buffer
    /// drops, TEE boundary bytes, and the per-release quantization-error
    /// trace.  All-zero/empty for tasks running in the clear.
    pub secure: SecureTelemetry,
    /// On-loop wall-clock breakdown of the secure pipeline (handshake,
    /// mask expansion, encode, unmask), filled together with
    /// [`secure`](MetricsCollector::secure).  Machine-dependent, so it is
    /// kept out of [`SecureTelemetry`] and never hashed into run
    /// fingerprints; the repo benchmark's traced run of `secure-stack`
    /// reports it as `secure.{handshake,mask,encode,unmask}_s`.
    pub secure_timings: SecureTimings,
    /// Differential-privacy telemetry, copied from the task's
    /// [`DpAggregator`](papaya_core::dp::DpAggregator) when the report is
    /// assembled (empty while the run is in progress): clip counts, the
    /// per-release clip-fraction/noise-std trace, and the cumulative
    /// `epsilon(target_delta)` trajectory the accountant composed across
    /// releases.  All-zero/empty for tasks running without DP.
    pub dp: DpTelemetry,
    /// Robust-aggregation telemetry, copied from the task's
    /// [`RobustAggregator`](papaya_core::robust::RobustAggregator) when the
    /// report is assembled (empty while the run is in progress): typed
    /// rejection counts (non-finite values, norm-filter bound) and the
    /// per-release estimator trace.  All-zero/empty for tasks running
    /// without a robust defense — and for defended tasks that stay at the
    /// neutral defense and never reject, so such a run fingerprints like
    /// the clear run.
    pub robust: RobustTelemetry,
    /// Updates whose payload or metadata a simulated Byzantine client
    /// corrupted before upload (the simulation's ground-truth attack count;
    /// a real deployment cannot observe this).
    pub attacked_updates: u64,
    /// Ground-truth attack counts keyed by the injected behavior's label
    /// (e.g. `"sign-flip"`, `"secagg-wrong-counter"`).
    pub attacks_by_label: BTreeMap<&'static str, u64>,
    /// `(virtual_seconds, client_id)` samples, one per corrupted upload.
    pub attack_trace: DecimatedTrace<(f64, usize)>,
    /// Updates a robust defense rejected before they reached the wrapped
    /// strategy's buffer (runtime-side mirror of
    /// [`RobustTelemetry::rejected_total`](papaya_core::robust::RobustTelemetry::rejected_total)).
    pub rejected_by_defense_updates: u64,
}

impl MetricsCollector {
    /// Creates an empty collector with unbounded traces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a retention budget to every per-event trace and to the round
    /// durations.  The budget changes which samples are kept, never the
    /// run's fingerprint or a reported mean.
    ///
    /// Must be called before the first sample is recorded.
    pub fn set_trace_budget(&mut self, budget: TraceBudget) {
        self.utilization_trace.set_budget(budget);
        self.loss_curve.set_budget(budget);
        self.participations.set_budget(budget);
        self.attack_trace.set_budget(budget);
        self.round_durations_s.set_budget(budget);
    }

    /// Records `active_clients` in flight at `time_s`.
    pub fn record_utilization(&mut self, time_s: f64, active_clients: usize) {
        self.active_clients_sum += active_clients as u64;
        self.utilization_trace.push((time_s, active_clients));
    }

    /// Records one completed synchronous round.
    pub fn record_round_duration(&mut self, duration_s: f64) {
        self.round_duration_sum_s += duration_s;
        self.round_durations_s.push(duration_s);
    }

    /// Records one ground-truth corrupted upload.  Only the simulation's
    /// adversary injection calls this — a real deployment never knows which
    /// uploads were malicious, which is exactly why the robust defenses
    /// must work from the update contents alone.
    pub fn record_attack(&mut self, time_s: f64, client_id: usize, label: &'static str) {
        self.attacked_updates += 1;
        *self.attacks_by_label.entry(label).or_insert(0) += 1;
        self.attack_trace.push((time_s, client_id));
    }

    /// Mean staleness over aggregated updates.
    pub fn mean_staleness(&self) -> f64 {
        if self.aggregated_updates == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.aggregated_updates as f64
        }
    }

    /// Mean synchronous round duration in seconds over every completed round
    /// (0 if none completed).
    pub fn mean_round_duration_s(&self) -> f64 {
        match self.round_durations_s.offered() {
            0 => 0.0,
            rounds => self.round_duration_sum_s / rounds as f64,
        }
    }

    /// Mean number of active clients over every utilization sample (0 if
    /// none was taken).
    pub fn mean_active_clients(&self) -> f64 {
        match self.utilization_trace.offered() {
            0 => 0.0,
            samples => self.active_clients_sum as f64 / samples as f64,
        }
    }

    /// Execution times of participations whose update was aggregated, read
    /// from the retained stride sample of
    /// [`participations`](MetricsCollector::participations) (at most the
    /// trace budget, 4 096 by default).
    pub fn aggregated_execution_times(&self) -> Vec<f64> {
        self.participations
            .iter()
            .filter(|p| p.aggregated)
            .map(|p| p.execution_time_s)
            .collect()
    }

    /// Example counts of participations whose update was aggregated, read
    /// from the retained stride sample as
    /// [`aggregated_execution_times`](MetricsCollector::aggregated_execution_times) is.
    pub fn aggregated_example_counts(&self) -> Vec<f64> {
        self.participations
            .iter()
            .filter(|p| p.aggregated)
            .map(|p| p.num_examples as f64)
            .collect()
    }

    /// Two-sample KS test of this run's aggregated example-count distribution
    /// against a reference distribution (the paper compares against SyncFL
    /// without over-selection as ground truth).  It tests the retained
    /// stride sample, so at most the trace budget (4 096 by default) of
    /// this run's participations.
    pub fn ks_against(&self, reference_examples: &[f64]) -> KsTestResult {
        ks_two_sample(&self.aggregated_example_counts(), reference_examples)
    }
}

/// Control-plane counters a multi-tenant run accumulates outside any single
/// task: failures, reassignments, and routing outcomes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlPlaneStats {
    /// Aggregator processes that failed during the run.
    pub aggregator_failures: u64,
    /// Task→Aggregator reassignments performed by the Coordinator.
    pub task_reassignments: u64,
    /// Client requests refused because a Selector's assignment map was
    /// stale (sequence behind the Coordinator's).
    pub stale_route_refusals: u64,
    /// Client updates lost in transit to a dead Aggregator.
    pub lost_in_transit_updates: u64,
    /// Final sequence number of the Coordinator's assignment map.
    pub final_map_sequence: u64,
    /// Tasks orphaned by total Aggregator loss (their route pointed at a
    /// corpse until a reconcile pass re-placed them).
    pub tasks_orphaned: u64,
    /// Corrective placements performed by reconcile passes (orphan
    /// re-placements plus pending first placements).
    pub tasks_reconciled: u64,
    /// Task submissions that found no alive Aggregator and were queued as
    /// pending instead of panicking.
    pub pending_task_submissions: u64,
    /// Heartbeats from unknown Aggregator ids that were accepted as
    /// implicit registrations.
    pub unknown_heartbeat_registrations: u64,
    /// Crashed Aggregator processes that came back during the run.
    pub aggregator_recoveries: u64,
    /// Heartbeats processed by the control plane.
    pub heartbeats: u64,
    /// Task placements performed (initial, reassignment, and reconcile).
    pub tasks_placed: u64,
    /// Absolute length of the control-plane event log at the end of the run.
    pub control_log_events: u64,
    /// Checkpoints the control plane took during the run.
    pub checkpoints_taken: u64,
    /// Events appended since the last checkpoint (restore replay cost).
    pub checkpoint_age_events: u64,
    /// Mid-run restores of the control plane from (checkpoint + log suffix).
    pub coordinator_restores: u64,
}

impl ControlPlaneStats {
    /// Renders the counters in Prometheus text exposition format, for bench
    /// binaries that export fleet reports as scrape-able metrics.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let counters = [
            (
                "papaya_fleet_aggregator_failures_total",
                "Aggregator processes that failed during the run.",
                self.aggregator_failures,
            ),
            (
                "papaya_fleet_aggregator_recoveries_total",
                "Crashed Aggregator processes that came back.",
                self.aggregator_recoveries,
            ),
            (
                "papaya_fleet_task_reassignments_total",
                "Task-to-Aggregator reassignments performed.",
                self.task_reassignments,
            ),
            (
                "papaya_fleet_tasks_orphaned_total",
                "Tasks orphaned by total Aggregator loss.",
                self.tasks_orphaned,
            ),
            (
                "papaya_fleet_tasks_reconciled_total",
                "Corrective placements performed by reconcile passes.",
                self.tasks_reconciled,
            ),
            (
                "papaya_fleet_pending_task_submissions_total",
                "Task submissions queued with no alive Aggregator.",
                self.pending_task_submissions,
            ),
            (
                "papaya_fleet_unknown_heartbeat_registrations_total",
                "Heartbeats from unknown ids accepted as registrations.",
                self.unknown_heartbeat_registrations,
            ),
            (
                "papaya_fleet_heartbeats_total",
                "Heartbeats processed by the control plane.",
                self.heartbeats,
            ),
            (
                "papaya_fleet_tasks_placed_total",
                "Task placements performed.",
                self.tasks_placed,
            ),
            (
                "papaya_fleet_stale_route_refusals_total",
                "Client requests refused by stale Selector maps.",
                self.stale_route_refusals,
            ),
            (
                "papaya_fleet_lost_in_transit_updates_total",
                "Client updates lost in transit to a dead Aggregator.",
                self.lost_in_transit_updates,
            ),
            (
                "papaya_fleet_control_log_events_total",
                "Absolute length of the control-plane event log.",
                self.control_log_events,
            ),
            (
                "papaya_fleet_checkpoints_total",
                "Checkpoints taken by the control plane.",
                self.checkpoints_taken,
            ),
            (
                "papaya_fleet_coordinator_restores_total",
                "Mid-run restores from (checkpoint + log suffix).",
                self.coordinator_restores,
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, help, value) in [
            (
                "papaya_fleet_map_sequence",
                "Final sequence number of the assignment map.",
                self.final_map_sequence,
            ),
            (
                "papaya_fleet_checkpoint_age_events",
                "Events appended since the last checkpoint.",
                self.checkpoint_age_events,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

/// Cross-task roll-up of a multi-tenant run.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Client updates received across all tasks.
    pub total_comm_trips: u64,
    /// Server model updates across all tasks.
    pub total_server_updates: u64,
    /// Failed participations across all tasks.
    pub total_failed_participations: u64,
    /// Buffered updates lost to Aggregator failures across all tasks.
    pub total_lost_buffered_updates: u64,
    /// Mean concurrently-active clients summed over tasks (fleet-wide
    /// device utilization).
    pub mean_active_clients: f64,
    /// Control-plane counters for the run.
    pub control_plane: ControlPlaneStats,
}

impl FleetSummary {
    /// Rolls up one collector per task and the control-plane counters.
    /// Collectors are borrowed — only scalar counters are read, never
    /// copied traces.
    pub fn roll_up(collectors: &[&MetricsCollector], control_plane: ControlPlaneStats) -> Self {
        FleetSummary {
            total_comm_trips: collectors.iter().map(|m| m.comm_trips).sum(),
            total_server_updates: collectors.iter().map(|m| m.server_updates).sum(),
            total_failed_participations: collectors.iter().map(|m| m.failed_participations).sum(),
            total_lost_buffered_updates: collectors.iter().map(|m| m.lost_buffered_updates).sum(),
            mean_active_clients: collectors.iter().map(|m| m.mean_active_clients()).sum(),
            control_plane,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_staleness_handles_empty() {
        let m = MetricsCollector::new();
        assert_eq!(m.mean_staleness(), 0.0);
    }

    #[test]
    fn summary_computes_rates() {
        let mut m = MetricsCollector::new();
        m.staleness_sum = 50;
        m.aggregated_updates = 100;
        m.record_utilization(0.0, 10);
        m.record_utilization(1.0, 20);
        m.record_round_duration(30.0);
        m.record_round_duration(60.0);
        assert_eq!(m.mean_staleness(), 0.5);
        assert_eq!(m.mean_active_clients(), 15.0);
        assert_eq!(m.mean_round_duration_s(), 45.0);
        assert_eq!(MetricsCollector::new().mean_round_duration_s(), 0.0);
    }

    #[test]
    fn means_are_bit_equal_at_every_budget() {
        let mut bounded = MetricsCollector::new();
        bounded.set_trace_budget(TraceBudget::bounded(8));
        let mut unbounded = MetricsCollector::new();
        for m in [&mut bounded, &mut unbounded] {
            (0..1_000).for_each(|i| m.record_utilization(i as f64, (i * 37) % 101));
            (0..50).for_each(|i| m.record_round_duration(1.0 / (i + 3) as f64));
        }
        assert!(bounded.utilization_trace.len() <= 8 && bounded.round_durations_s.len() <= 8);
        // Both report the mean over every sample, summed in offer order.
        let active = unbounded.utilization_trace.iter().map(|&(_, a)| a as f64);
        let active = active.sum::<f64>() / 1_000.0;
        let duration = unbounded.round_durations_s.iter().sum::<f64>() / 50.0;
        for m in [&bounded, &unbounded] {
            assert_eq!(m.mean_active_clients().to_bits(), active.to_bits());
            assert_eq!(m.mean_round_duration_s().to_bits(), duration.to_bits());
        }
    }

    #[test]
    fn secure_rates_derive_from_the_collected_counters() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.secure, SecureTelemetry::default());
        m.secure.masked_updates = 4;
        m.secure.tee_bytes_in = 1200;
        m.secure.quantization_error_trace = vec![(10.0, 1e-6), (20.0, 3e-5), (30.0, 2e-6)].into();
        assert_eq!(m.secure.tee_bytes_in_per_client(), 300.0);
        assert_eq!(m.secure.max_quantization_error(), 3e-5);
    }

    #[test]
    fn dp_clip_fraction_derives_from_the_collected_counters() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.dp, DpTelemetry::default());
        m.dp.accepted_updates = 10;
        m.dp.clipped_updates = 4;
        assert_eq!(m.dp.clip_fraction(), 0.4);
    }

    #[test]
    fn attacks_are_counted_by_label_and_traced() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.robust, RobustTelemetry::default());
        m.robust.rejected_non_finite = 1;
        m.robust.rejected_by_norm = 2;
        m.record_attack(10.0, 7, "sign-flip");
        m.record_attack(20.0, 9, "sign-flip");
        m.record_attack(25.0, 11, "secagg-wrong-counter");
        assert_eq!(m.attacks_by_label.get("sign-flip"), Some(&2));
        assert_eq!(m.attacks_by_label.get("secagg-wrong-counter"), Some(&1));
        assert_eq!(m.attack_trace.len(), 3);
        assert_eq!(m.robust.rejected_total(), 3);
        assert_eq!(m.attacked_updates, 3);
    }

    #[test]
    fn attack_trace_respects_the_budget() {
        let mut m = MetricsCollector::new();
        m.set_trace_budget(TraceBudget::bounded(8));
        for i in 0..100 {
            m.record_attack(i as f64, i, "scaled");
        }
        assert_eq!(m.attacked_updates, 100);
        assert!(m.attack_trace.len() <= 8);
        assert_eq!(m.attacks_by_label.get("scaled"), Some(&100));
    }

    #[test]
    fn aggregated_filters_apply() {
        let mut m = MetricsCollector::new();
        m.participations = vec![
            ParticipationRecord {
                client_id: 0,
                execution_time_s: 10.0,
                num_examples: 5,
                aggregated: true,
            },
            ParticipationRecord {
                client_id: 1,
                execution_time_s: 99.0,
                num_examples: 50,
                aggregated: false,
            },
        ]
        .into();
        assert_eq!(m.aggregated_execution_times(), vec![10.0]);
        assert_eq!(m.aggregated_example_counts(), vec![5.0]);
    }

    #[test]
    fn fleet_summary_rolls_up_tasks() {
        let mut a = MetricsCollector::new();
        a.comm_trips = 100;
        a.server_updates = 10;
        a.failed_participations = 3;
        a.lost_buffered_updates = 2;
        a.record_utilization(0.0, 4);
        a.record_utilization(1.0, 6);
        let mut b = MetricsCollector::new();
        b.comm_trips = 50;
        b.server_updates = 5;
        b.record_utilization(0.0, 10);
        b.record_utilization(1.0, 10);
        let stats = ControlPlaneStats {
            aggregator_failures: 1,
            task_reassignments: 1,
            stale_route_refusals: 7,
            lost_in_transit_updates: 4,
            final_map_sequence: 3,
            ..Default::default()
        };
        let fleet = FleetSummary::roll_up(&[&a, &b], stats.clone());
        assert_eq!(fleet.total_comm_trips, 150);
        assert_eq!(fleet.total_server_updates, 15);
        assert_eq!(fleet.total_failed_participations, 3);
        assert_eq!(fleet.total_lost_buffered_updates, 2);
        assert_eq!(fleet.mean_active_clients, 15.0);
        assert_eq!(fleet.control_plane, stats);
    }

    #[test]
    fn control_plane_stats_render_as_prometheus_text() {
        let stats = ControlPlaneStats {
            aggregator_failures: 2,
            tasks_orphaned: 3,
            tasks_reconciled: 3,
            coordinator_restores: 1,
            final_map_sequence: 9,
            ..Default::default()
        };
        let text = stats.prometheus_text();
        for needle in [
            "# HELP papaya_fleet_tasks_orphaned_total",
            "# TYPE papaya_fleet_tasks_orphaned_total counter",
            "papaya_fleet_tasks_orphaned_total 3",
            "papaya_fleet_tasks_reconciled_total 3",
            "papaya_fleet_coordinator_restores_total 1",
            "# TYPE papaya_fleet_map_sequence gauge",
            "papaya_fleet_map_sequence 9",
            "papaya_fleet_checkpoint_age_events 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn ks_against_detects_identical_distribution() {
        let mut m = MetricsCollector::new();
        for i in 0..200 {
            m.participations.push(ParticipationRecord {
                client_id: i,
                execution_time_s: 1.0,
                num_examples: i % 50,
                aggregated: true,
            });
        }
        let reference: Vec<f64> = (0..200).map(|i| (i % 50) as f64).collect();
        let result = m.ks_against(&reference);
        assert!(result.d_statistic < 0.05);
    }
}
