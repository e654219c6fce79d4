//! Run-loop behaviour on direct (fleet-less) scenarios: selection,
//! dropouts, staleness, synchronous rounds, utilization, stop conditions.

#[cfg(test)]
mod tests {
    use crate::scenario::{
        EvalPolicy, RunLimits, Scenario, ScenarioBuilder, StopReason, TaskReport,
    };
    use papaya_core::client::ClientTrainer;
    use papaya_core::config::TaskConfig;
    use papaya_core::surrogate::{SurrogateConfig, SurrogateObjective};
    use papaya_data::population::{Population, PopulationConfig};
    use std::sync::Arc;

    fn population(n: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(n), 17)
    }

    fn trainer(pop: &Population) -> Arc<SurrogateObjective> {
        Arc::new(SurrogateObjective::new(pop, SurrogateConfig::default(), 17))
    }

    /// `task` over `pop`, trained by the surrogate objective.
    fn scenario(task: TaskConfig, pop: Population) -> ScenarioBuilder {
        let t = trainer(&pop);
        Scenario::builder()
            .population(pop)
            .task_with_trainer(task, t)
    }

    fn run(task: TaskConfig, hours: f64, pop_size: usize) -> TaskReport {
        scenario(task, population(pop_size))
            .limits(RunLimits::default().with_max_virtual_time_hours(hours))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(3)
            .build()
            .run()
            .into_single()
    }

    fn mean_active(report: &TaskReport) -> f64 {
        let trace = &report.metrics.utilization_trace;
        trace.iter().map(|&(_, a)| a as f64).sum::<f64>() / trace.len() as f64
    }

    #[test]
    fn async_simulation_trains_and_reduces_loss() {
        let result = run(TaskConfig::async_task("t", 64, 16), 3.0, 1000);
        assert!(result.server_updates() > 10, "{}", result.server_updates());
        assert_eq!(result.final_version, result.server_updates());
        assert!(
            result.final_loss < 0.5 * result.initial_loss,
            "loss {} -> {}",
            result.initial_loss,
            result.final_loss
        );
    }

    #[test]
    fn sync_simulation_trains_and_counts_rounds() {
        let result = run(TaskConfig::sync_task("t", 65, 0.3), 6.0, 1000);
        assert!(result.server_updates() > 2);
        assert_eq!(
            result.metrics.round_durations_s.len() as u64,
            result.server_updates()
        );
        assert!(result.metrics.mean_round_duration_s() > 0.0);
        // Over-selection aborts some still-running clients each round.
        assert!(result.metrics.aborted_by_round_end > 0);
    }

    #[test]
    fn async_has_more_server_updates_than_sync_in_same_time() {
        let async_result = run(TaskConfig::async_task("a", 64, 16), 2.0, 800);
        let sync_result = run(TaskConfig::sync_task("s", 64, 0.3), 2.0, 800);
        assert!(
            async_result.server_updates() > 2 * sync_result.server_updates(),
            "async {} vs sync {}",
            async_result.server_updates(),
            sync_result.server_updates()
        );
    }

    #[test]
    fn async_utilization_is_higher_than_sync() {
        let async_result = run(TaskConfig::async_task("a", 50, 10), 2.0, 800);
        let sync_result = run(TaskConfig::sync_task("s", 50, 0.0), 2.0, 800);
        assert!(mean_active(&async_result) > mean_active(&sync_result));
        // AsyncFL stays close to the concurrency target.
        assert!(mean_active(&async_result) > 40.0);
    }

    #[test]
    fn concurrency_bound_is_respected() {
        let result = run(TaskConfig::async_task("t", 32, 8), 1.0, 500);
        assert!(result
            .metrics
            .utilization_trace
            .iter()
            .all(|&(_, active)| active <= 32));
    }

    #[test]
    fn target_loss_stops_early() {
        let pop = population(800);
        let t = trainer(&pop);
        let initial_loss = {
            let all: Vec<usize> = (0..pop.len()).collect();
            t.evaluate(&t.initial_parameters(), &all)
        };
        let report = Scenario::builder()
            .population(pop)
            .task_with_trainer(TaskConfig::async_task("t", 64, 16), t)
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(20.0)
                    .with_target_loss(initial_loss * 0.3),
            )
            .eval(EvalPolicy::default().with_interval_s(300.0))
            .seed(5)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::TargetLossReached);
        assert!(report.single().hours_to_target.is_some());
        assert!(report.virtual_hours < 20.0);
    }

    #[test]
    fn max_client_updates_stops_run() {
        let report = scenario(TaskConfig::async_task("t", 32, 8), population(500))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(50.0)
                    .with_max_client_updates(200),
            )
            .seed(1)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxClientUpdates);
        assert_eq!(report.single().comm_trips(), 200);
    }

    #[test]
    fn dropouts_are_recorded_and_replaced() {
        let pop = Population::generate(
            &PopulationConfig::default().with_size(600).with_dropout(0.3),
            9,
        );
        let result = scenario(TaskConfig::async_task("t", 32, 8), pop)
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .seed(9)
            .build()
            .run()
            .into_single();
        assert!(result.metrics.failed_participations > 0);
        // Training still progresses despite failures.
        assert!(result.server_updates() > 0);
    }

    #[test]
    fn tight_staleness_bound_rejects_updates() {
        let task = TaskConfig::async_task("t", 256, 4).with_max_staleness(1);
        let result = scenario(task, population(800))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .seed(2)
            .build()
            .run()
            .into_single();
        // With 256 concurrent clients and K = 4, staleness frequently
        // exceeds 1, so some updates must be rejected or clients aborted.
        assert!(result.metrics.rejected_stale_updates + result.metrics.failed_participations > 0);
    }

    #[test]
    fn sync_without_over_selection_has_no_aborted_clients_at_round_end() {
        let result = run(TaskConfig::sync_task("t", 40, 0.0), 4.0, 800);
        // Without over-selection the round waits for every member (failures
        // are replaced), so nobody is aborted when the round closes.
        assert_eq!(result.metrics.aborted_by_round_end, 0);
        assert!(result.metrics.discarded_updates == 0);
    }

    #[test]
    fn selection_stays_fast_when_population_is_saturated() {
        // Concurrency equal to the population size: every selection after
        // warm-up happens from a nearly-empty free pool, the regime the old
        // rejection-sampling loop handled in O(population) per pick.
        let result = run(TaskConfig::async_task("t", 120, 8), 1.0, 120);
        assert!(result.server_updates() > 0);
        assert!(result
            .metrics
            .utilization_trace
            .iter()
            .all(|&(_, active)| active <= 120));
    }
}
