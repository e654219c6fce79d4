//! Run-loop behaviour on fleet scenarios: several tasks over one shared
//! population, capability tiers, demand pooling, and Aggregator crashes.

#[cfg(test)]
mod tests {
    use crate::scenario::{
        EvalPolicy, FleetSpec, Report, RunLimits, Scenario, ScenarioBuilder, TierPolicy,
    };
    use papaya_core::config::TaskConfig;
    use papaya_data::population::{Population, PopulationConfig};

    fn population(n: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(n), 23)
    }

    fn four_tasks() -> Vec<TaskConfig> {
        vec![
            TaskConfig::async_task("kbd-lm", 64, 16),
            TaskConfig::async_task("kws", 32, 8).with_min_capability_tier(1),
            TaskConfig::sync_task("ranker", 40, 0.3),
            TaskConfig::async_task("asr", 24, 8).with_min_capability_tier(2),
        ]
    }

    /// The four tasks on `aggregators` Aggregators and two Selectors.
    fn fleet(
        pop: Population,
        aggregators: usize,
        hours: f64,
        eval_interval_s: f64,
        seed: u64,
    ) -> ScenarioBuilder {
        four_tasks()
            .into_iter()
            .fold(Scenario::builder(), ScenarioBuilder::task)
            .population(pop)
            .fleet(FleetSpec::new(aggregators, 2))
            .limits(RunLimits::default().with_max_virtual_time_hours(hours))
            .eval(EvalPolicy::default().with_interval_s(eval_interval_s))
            .seed(seed)
    }

    fn assert_every_task_improved(report: &Report) {
        for task in &report.tasks {
            assert!(
                task.final_loss < task.initial_loss,
                "task {} did not improve: {} -> {}",
                task.name,
                task.initial_loss,
                task.final_loss
            );
        }
    }

    #[test]
    fn all_tasks_train_concurrently_over_shared_population() {
        let report = fleet(population(2000), 3, 2.0, 600.0, 7).build().run();
        assert_eq!(report.tasks.len(), 4);
        for task in &report.tasks {
            assert!(
                task.comm_trips() > 0,
                "task {} received no updates",
                task.name
            );
        }
        assert_every_task_improved(&report);
        assert_eq!(
            report.fleet.total_comm_trips,
            report.tasks.iter().map(|t| t.comm_trips()).sum::<u64>()
        );
        assert_eq!(report.fleet.control_plane.aggregator_failures, 0);
        assert_eq!(report.fleet.control_plane.task_reassignments, 0);
    }

    #[test]
    fn capability_tiers_restrict_participation() {
        let pop = population(1500);
        let tiers: Vec<u8> = pop.iter().map(|d| TierPolicy::default().tier(&d)).collect();
        let report = fleet(pop, 2, 1.0, 600.0, 13).build().run();
        // Task 3 requires tier 2; every participant must be a tier-2 device.
        for record in &report.tasks[3].metrics.participations {
            assert!(
                tiers[record.client_id] >= 2,
                "tier-{} device {} participated in the tier-2 task",
                tiers[record.client_id],
                record.client_id
            );
        }
        // The unrestricted task sees lower-tier devices too.
        assert!(report.tasks[0]
            .metrics
            .participations
            .iter()
            .any(|r| tiers[r.client_id] < 2));
    }

    #[test]
    fn no_device_serves_two_tasks_at_once() {
        // The shared sampling pool guarantees exclusivity; this asserts the
        // invariant survives the full control-plane flow, including crashes.
        // `ShardedSamplingPool::release` panics on double-release, so a
        // successful run is itself the assertion; spot-check utilization
        // stays bounded.
        let report = fleet(population(1200), 2, 1.0, 600.0, 3)
            .crash_at(600.0, 0)
            .build()
            .run();
        let max_concurrency: usize = four_tasks().iter().map(|t| t.concurrency).sum();
        for task in &report.tasks {
            assert!(task
                .metrics
                .utilization_trace
                .iter()
                .all(|&(_, active)| active <= max_concurrency));
        }
    }

    #[test]
    fn crash_drops_buffers_reassigns_and_training_resumes() {
        let report = fleet(population(2000), 2, 2.0, 300.0, 21)
            .crash_at(1800.0, 0)
            .build()
            .run();
        let cp = &report.fleet.control_plane;
        assert_eq!(cp.aggregator_failures, 1);
        assert!(cp.task_reassignments > 0, "no task was reassigned");
        // The reassignment bumps the map sequence past the initial submits.
        assert!(cp.final_map_sequence > 4);
        // Tasks on the dead Aggregator lost in-transit uploads.
        assert!(cp.lost_in_transit_updates > 0);
        // Every task still converges.
        assert_every_task_improved(&report);
        // At least one task was moved and lost buffered progress.
        assert!(report.tasks.iter().any(|t| t.reassignments > 0));
    }

    #[test]
    fn runs_are_deterministic_for_the_same_seed() {
        let run = || {
            fleet(population(1000), 2, 1.0, 600.0, 5)
                .crash_at(900.0, 1)
                .build()
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fleet.control_plane, b.fleet.control_plane);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn demand_pooling_keeps_unconfirmed_assignments_bounded() {
        // With a single small task, the Coordinator must not assign more
        // clients than the task's demand between Aggregator reports.
        let report = Scenario::builder()
            .population(population(400))
            .task(TaskConfig::async_task("t", 16, 4))
            .fleet(FleetSpec::new(1, 1))
            .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(9)
            .build()
            .run();
        assert!(report.tasks[0]
            .metrics
            .utilization_trace
            .iter()
            .all(|&(_, active)| active <= 16));
        assert!(report.tasks[0].comm_trips() > 0);
    }
}
