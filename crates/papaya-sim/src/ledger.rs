//! The run's ledger: accounting laws every finished [`Report`] obeys.
//!
//! Each law ties together counters that different layers keep on their
//! own: the run loop's outcome counts, the model version, the decorators'
//! telemetry, the fleet roll-up and the control plane's stats.  They are
//! the executable contracts between those layers (Couto et al., PAPERS.md):
//! a layer that miscounts, or an outcome no layer records, breaks one.
//! [`Report::audit`] checks them over the fields a report already has.

use crate::scenario::{Report, TaskReport};

/// One law a [`Report`] breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerViolation {
    /// The task whose counters break the law; `None` for a fleet-wide law.
    pub(crate) task: Option<usize>,
    /// The law, written over the report's field names.
    pub(crate) law: &'static str,
    /// Both sides as the report holds them.
    pub(crate) found: String,
}

impl Report {
    /// Checks every ledger law and returns each one the report breaks.
    ///
    /// Per task:
    /// - every upload has one outcome: `comm_trips` = `aggregated_updates` +
    ///   `rejected_by_defense_updates`;
    /// - `server_updates` = `final_version`;
    /// - `discarded_updates` = 0 (see below);
    /// - `rejected_by_defense_updates` = the robust stage's rejections;
    /// - under DP, `dp.releases` = `server_updates` and
    ///   `dp.accepted_updates` = `aggregated_updates`; the ε trace never
    ///   falls and ends at `dp.cumulative_epsilon`;
    /// - under SecAgg, `secure.tsa_key_releases` = `server_updates` and
    ///   `secure.masked_updates` = `aggregated_updates`;
    /// - with an engaged estimator, `robust.estimator_releases` =
    ///   `server_updates`.
    ///
    /// Fleet-wide: each [`FleetSummary`](crate::metrics::FleetSummary) total is the
    /// sum over the tasks, `lost_in_transit_updates` ≤ the failed
    /// participations, and `tasks_reconciled` ≤ `tasks_orphaned`.
    ///
    /// A layer counts as on when any of its counters moved.
    pub fn audit(&self) -> Result<(), Vec<LedgerViolation>> {
        let mut ledger = Ledger::default();
        for task in &self.tasks {
            ledger.task(task);
        }
        ledger.fleet(self);
        if ledger.violations.is_empty() {
            Ok(())
        } else {
            Err(ledger.violations)
        }
    }
}

/// The violations found so far.
#[derive(Default)]
struct Ledger {
    violations: Vec<LedgerViolation>,
}

impl Ledger {
    fn check(&mut self, task: Option<usize>, law: &'static str, holds: bool, found: String) {
        if !holds {
            self.violations.push(LedgerViolation { task, law, found });
        }
    }

    /// `left = right`, with a right side wide enough that no sum of
    /// counters overflows.
    fn equal(&mut self, task: Option<usize>, law: &'static str, left: u64, right: impl Into<u128>) {
        let right = right.into();
        self.check(
            task,
            law,
            u128::from(left) == right,
            format!("{left} vs {right}"),
        );
    }

    fn task(&mut self, report: &TaskReport) {
        let m = &report.metrics;
        let task = Some(report.task_id);
        self.equal(
            task,
            "comm_trips = aggregated_updates + rejected_by_defense_updates",
            m.comm_trips,
            u128::from(m.aggregated_updates) + u128::from(m.rejected_by_defense_updates),
        );
        self.equal(
            task,
            "server_updates = final_version",
            m.server_updates,
            report.final_version,
        );
        // Nothing increments `discarded_updates`: no update reaches a closed
        // round, because `end_sync_round` aborts the round's stragglers.
        // The field exists only because the repo benchmark
        // (`benchmark/src/run.rs`) still reads it.
        self.equal(task, "discarded_updates = 0", m.discarded_updates, 0u64);
        self.equal(
            task,
            "rejected_by_defense_updates = robust.rejected_non_finite + robust.rejected_by_norm",
            m.rejected_by_defense_updates,
            u128::from(m.robust.rejected_non_finite) + u128::from(m.robust.rejected_by_norm),
        );

        let dp = &m.dp;
        if dp.accepted_updates > 0 || dp.releases > 0 || dp.release_trace.offered() > 0 {
            self.equal(
                task,
                "dp.releases = server_updates",
                dp.releases,
                m.server_updates,
            );
            self.equal(
                task,
                "dp.accepted_updates = aggregated_updates",
                dp.accepted_updates,
                m.aggregated_updates,
            );
        }
        let epsilons: Vec<f64> = dp
            .release_trace
            .iter()
            .map(|release| release.cumulative_epsilon)
            .collect();
        self.check(
            task,
            "the dp.release_trace epsilons never fall",
            epsilons.windows(2).all(|pair| pair[0] <= pair[1]),
            format!("{epsilons:?}"),
        );
        // A trace that kept every release ends at the last one.
        if dp.release_trace.offered() == epsilons.len() as u64 {
            let last = epsilons.last().copied().unwrap_or(0.0);
            self.check(
                task,
                "the dp.release_trace ends at dp.cumulative_epsilon",
                last == dp.cumulative_epsilon,
                format!("{last} vs {}", dp.cumulative_epsilon),
            );
        }

        let secure = &m.secure;
        if secure.masked_updates > 0 || secure.masked_discarded > 0 || secure.tsa_key_releases > 0 {
            self.equal(
                task,
                "secure.tsa_key_releases = server_updates",
                secure.tsa_key_releases,
                m.server_updates,
            );
            self.equal(
                task,
                "secure.masked_updates = aggregated_updates",
                secure.masked_updates,
                m.aggregated_updates,
            );
        }

        let robust = &m.robust;
        if robust.estimator_releases > 0 || robust.estimator_trace.offered() > 0 {
            self.equal(
                task,
                "robust.estimator_releases = server_updates",
                robust.estimator_releases,
                m.server_updates,
            );
        }
    }

    fn fleet(&mut self, report: &Report) {
        let fleet = &report.fleet;
        let sum = |count: fn(&TaskReport) -> u64| {
            let counts = report.tasks.iter().map(|task| u128::from(count(task)));
            counts.sum::<u128>()
        };
        self.equal(
            None,
            "fleet.total_comm_trips = the tasks' comm_trips",
            fleet.total_comm_trips,
            sum(|t| t.metrics.comm_trips),
        );
        self.equal(
            None,
            "fleet.total_server_updates = the tasks' server_updates",
            fleet.total_server_updates,
            sum(|t| t.metrics.server_updates),
        );
        let failed = sum(|t| t.metrics.failed_participations);
        self.equal(
            None,
            "fleet.total_failed_participations = the tasks' failed_participations",
            fleet.total_failed_participations,
            failed,
        );
        self.equal(
            None,
            "fleet.total_lost_buffered_updates = the tasks' lost_buffered_updates",
            fleet.total_lost_buffered_updates,
            sum(|t| t.metrics.lost_buffered_updates),
        );
        let plane = &fleet.control_plane;
        self.check(
            None,
            "control_plane.lost_in_transit_updates <= the tasks' failed_participations",
            u128::from(plane.lost_in_transit_updates) <= failed,
            format!("{} vs {failed}", plane.lost_in_transit_updates),
        );
        self.check(
            None,
            "control_plane.tasks_reconciled <= control_plane.tasks_orphaned",
            plane.tasks_reconciled <= plane.tasks_orphaned,
            format!("{} vs {}", plane.tasks_reconciled, plane.tasks_orphaned),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalPolicy, RunLimits, Scenario};
    use papaya_core::{
        AdversarySpec, DpConfig, Malice, RobustConfig, RobustDefense, SecAggMode, TaskConfig,
    };
    use papaya_data::population::{Population, PopulationConfig};

    /// FedBuff under `robust(dp(secure(·)))` with scaled attackers: every
    /// conditional law is in force.
    fn stacked_run() -> Report {
        Scenario::builder()
            .population(Population::generate(
                &PopulationConfig::default().with_size(200),
                5,
            ))
            .task(
                TaskConfig::async_task("stack", 12, 4)
                    .with_secagg(SecAggMode::AsyncSecAgg)
                    .with_dp(DpConfig::new(4.0, 0.5).with_sampling_rate(0.05))
                    .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                        trim_fraction: 0.1,
                    }))
                    .with_adversary(AdversarySpec::new(0.1, Malice::Scaled { factor: 50.0 })),
            )
            .limits(RunLimits::default().with_max_client_updates(40))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(5)
            .build()
            .run()
    }

    fn broken_laws(report: &Report) -> Vec<&'static str> {
        let violations = report.audit().err().unwrap_or_default();
        violations.iter().map(|v| v.law).collect()
    }

    #[test]
    fn a_run_keeps_every_law() {
        let report = stacked_run();
        assert_eq!(report.audit(), Ok(()));
        let m = &report.single().metrics;
        assert!(m.server_updates > 0);
        assert_eq!(m.dp.releases, m.server_updates);
        assert_eq!(m.secure.tsa_key_releases, m.server_updates);
        assert_eq!(m.robust.estimator_releases, m.server_updates);
    }

    #[test]
    fn each_miscount_breaks_its_law() {
        let clean = stacked_run();
        type Tamper = fn(&mut Report);
        let cases: [(Tamper, &str); 9] = [
            (
                // An update counted as accepted that no stage accepted.
                |r| {
                    let m = &mut r.tasks[0].metrics;
                    m.comm_trips += 1;
                    m.aggregated_updates += 1;
                },
                "secure.masked_updates = aggregated_updates",
            ),
            (
                // A rejection the robust stage did not make.
                |r| {
                    let m = &mut r.tasks[0].metrics;
                    m.comm_trips += 1;
                    m.rejected_by_defense_updates += 1;
                },
                "rejected_by_defense_updates = robust.rejected_non_finite + robust.rejected_by_norm",
            ),
            (
                |r| r.tasks[0].metrics.comm_trips += 1,
                "comm_trips = aggregated_updates + rejected_by_defense_updates",
            ),
            // A server update applied without being counted.
            (|r| r.tasks[0].final_version += 1, "server_updates = final_version"),
            (
                |r| r.tasks[0].metrics.discarded_updates += 1,
                "discarded_updates = 0",
            ),
            // A DP release the counter skipped.
            (|r| r.tasks[0].metrics.dp.releases -= 1, "dp.releases = server_updates"),
            (
                |r| r.tasks[0].metrics.dp.cumulative_epsilon *= 2.0,
                "the dp.release_trace ends at dp.cumulative_epsilon",
            ),
            (
                |r| r.tasks[0].metrics.secure.tsa_key_releases += 1,
                "secure.tsa_key_releases = server_updates",
            ),
            (
                |r| r.fleet.control_plane.tasks_reconciled += 1,
                "control_plane.tasks_reconciled <= control_plane.tasks_orphaned",
            ),
        ];
        for (tamper, law) in cases {
            let mut report = clean.clone();
            tamper(&mut report);
            assert!(
                broken_laws(&report).contains(&law),
                "{law} held; broken: {:?}",
                broken_laws(&report)
            );
        }
    }
}
