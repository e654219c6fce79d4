//! System-behaviour experiments: Figures 2, 7, 8, and 11.

use crate::experiments::common::{population, surrogate, Scale};
use papaya_core::surrogate::ProceduralSurrogate;
use papaya_core::TaskConfig;
use papaya_data::population::Population;
use papaya_data::stats::{mean, Histogram, KsTestResult};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use std::sync::Arc;

/// Runs one task through the unified [`Scenario`] entrypoint with the
/// coarse-eval settings the system-behaviour figures share.
fn run_system_task(
    task: TaskConfig,
    pop: &Population,
    trainer: &Arc<ProceduralSurrogate>,
    hours: f64,
    seed: u64,
) -> TaskReport {
    Scenario::builder()
        .population(pop.clone())
        .task_with_trainer(task, trainer.clone())
        .limits(RunLimits::default().with_max_virtual_time_hours(hours))
        .eval(EvalPolicy::default().with_interval_s(3600.0))
        .seed(seed)
        .build()
        .run()
        .into_single()
}

/// Figure 2: the client execution-time distribution and the ratio of the
/// mean SyncFL round duration (concurrency = aggregation goal = 1000) to the
/// mean client execution time.
#[derive(Clone, Debug)]
pub struct Fig2Result {
    /// Log-spaced histogram of client execution times.
    pub histogram: Histogram,
    /// Mean client execution time in seconds.
    pub mean_client_time_s: f64,
    /// Mean SyncFL round duration in seconds.
    pub mean_round_duration_s: f64,
}

impl Fig2Result {
    /// Round-duration to client-time ratio (the paper reports 21×).
    pub fn ratio(&self) -> f64 {
        self.mean_round_duration_s / self.mean_client_time_s
    }
}

/// Runs the Figure 2 experiment.
pub fn fig2(scale: Scale, seed: u64) -> Fig2Result {
    let pop = population(scale.population_size(), seed);
    let times = pop.execution_times();
    let histogram = Histogram::log_spaced(&times, 30);
    let mean_client_time_s = mean(&times);

    // A SyncFL task with concurrency = aggregation goal (no over-selection);
    // the mean round duration is dominated by stragglers.
    let cohort = match scale {
        Scale::Quick => 250,
        Scale::Full => 1000,
    };
    let trainer = surrogate(&pop, seed);
    let result = run_system_task(
        TaskConfig::sync_task("fig2", cohort, 0.0),
        &pop,
        &trainer,
        6.0,
        seed,
    );
    Fig2Result {
        histogram,
        mean_client_time_s,
        mean_round_duration_s: result.metrics.mean_round_duration_s(),
    }
}

/// Figure 7: number of active clients over time for SyncFL (30 %
/// over-selection) and AsyncFL at the same max concurrency.
pub fn fig7(scale: Scale, seed: u64) -> (TaskReport, TaskReport) {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let concurrency = scale.reference_concurrency();
    let hours = 2.0;
    let sync = run_system_task(
        TaskConfig::sync_task("fig7-sync", concurrency, 0.3),
        &pop,
        &trainer,
        hours,
        seed,
    );
    let async_fl = run_system_task(
        TaskConfig::async_task(
            "fig7-async",
            concurrency,
            scale.reference_aggregation_goal(),
        ),
        &pop,
        &trainer,
        hours,
        seed,
    );
    (sync, async_fl)
}

/// Figure 8: server model updates per hour as concurrency grows, for SyncFL
/// (30 % over-selection) and AsyncFL (fixed K).
pub fn fig8(scale: Scale, seed: u64) -> Vec<(usize, f64, f64)> {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let goal = scale.reference_aggregation_goal();
    let hours = 2.0;
    scale
        .concurrencies()
        .into_iter()
        .map(|concurrency| {
            let sync = run_system_task(
                TaskConfig::sync_task("fig8-sync", concurrency, 0.3),
                &pop,
                &trainer,
                hours,
                seed,
            );
            let async_fl = run_system_task(
                TaskConfig::async_task("fig8-async", concurrency, goal),
                &pop,
                &trainer,
                hours,
                seed,
            );
            (
                concurrency,
                sync.server_updates_per_hour(),
                async_fl.server_updates_per_hour(),
            )
        })
        .collect()
}

/// Figure 11 / Section 7.4: participation distributions and KS statistics.
#[derive(Clone, Debug)]
pub struct Fig11Result {
    /// Example counts of clients aggregated by SyncFL *without*
    /// over-selection (the ground-truth participation distribution).
    pub ground_truth_examples: Vec<f64>,
    /// Example counts aggregated by SyncFL *with* over-selection.
    pub sync_os_examples: Vec<f64>,
    /// Example counts aggregated by AsyncFL.
    pub async_examples: Vec<f64>,
    /// Execution times aggregated by SyncFL with over-selection.
    pub sync_os_exec_times: Vec<f64>,
    /// Execution times of the ground truth.
    pub ground_truth_exec_times: Vec<f64>,
    /// KS test: AsyncFL vs ground truth (paper: D = 8.8e-4, p = 0.98).
    pub ks_async: KsTestResult,
    /// KS test: SyncFL w/ OS vs ground truth (paper: D = 6.6e-2, p = 0.0).
    pub ks_sync_os: KsTestResult,
}

/// Runs the Figure 11 experiment.
pub fn fig11(scale: Scale, seed: u64) -> Fig11Result {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let concurrency = scale.reference_concurrency();
    let hours = match scale {
        Scale::Quick => 4.0,
        Scale::Full => 6.0,
    };
    let run =
        |task: TaskConfig| -> TaskReport { run_system_task(task, &pop, &trainer, hours, seed) };
    let goal = (concurrency as f64 / 1.3).round() as usize;
    let ground_truth = run(TaskConfig::sync_task("no-os", goal, 0.0));
    let sync_os = run(TaskConfig::sync_task("os", concurrency, 0.3));
    let async_fl = run(TaskConfig::async_task(
        "async",
        concurrency,
        scale.reference_aggregation_goal(),
    ));

    let ground_truth_examples = ground_truth.metrics.aggregated_example_counts();
    let sync_os_examples = sync_os.metrics.aggregated_example_counts();
    let async_examples = async_fl.metrics.aggregated_example_counts();
    let ks_async = async_fl.metrics.ks_against(&ground_truth_examples);
    let ks_sync_os = sync_os.metrics.ks_against(&ground_truth_examples);
    Fig11Result {
        ground_truth_exec_times: ground_truth.metrics.aggregated_execution_times(),
        sync_os_exec_times: sync_os.metrics.aggregated_execution_times(),
        ground_truth_examples,
        sync_os_examples,
        async_examples,
        ks_async,
        ks_sync_os,
    }
}
