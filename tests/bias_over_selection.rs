//! Cross-crate integration test for Section 7.4: over-selection introduces
//! sampling bias, asynchronous training does not.

use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_data::stats::mean;
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use std::sync::Arc;

fn run(
    task: TaskConfig,
    population: &Population,
    trainer: &Arc<ProceduralSurrogate>,
) -> TaskReport {
    Scenario::builder()
        .population(population.clone())
        .task_with_trainer(task, trainer.clone())
        .limits(RunLimits::default().with_max_virtual_time_hours(4.0))
        .eval(EvalPolicy::default().with_interval_s(3600.0))
        .seed(29)
        .build()
        .run()
        .into_single()
}

#[test]
fn over_selection_biases_participation_async_does_not() {
    let population = Population::generate(&PopulationConfig::default().with_size(3_000), 29);
    let trainer = Arc::new(ProceduralSurrogate::new(
        &population,
        SurrogateConfig::default(),
        29,
    ));

    // Ground truth: SyncFL without over-selection aggregates every selected
    // client, so its participation distribution reflects the population.
    let ground_truth = run(
        TaskConfig::sync_task("no-os", 100, 0.0),
        &population,
        &trainer,
    );
    let sync_os = run(TaskConfig::sync_task("os", 130, 0.3), &population, &trainer);
    let async_fl = run(
        TaskConfig::async_task("async", 130, 32),
        &population,
        &trainer,
    );

    let truth_examples = ground_truth.metrics.aggregated_example_counts();
    let os_examples = sync_os.metrics.aggregated_example_counts();
    let async_examples = async_fl.metrics.aggregated_example_counts();
    assert!(truth_examples.len() > 100);
    assert!(os_examples.len() > 100);
    assert!(async_examples.len() > 100);

    // Over-selection drops the slowest clients, which are the heavy-data
    // clients, so its aggregated clients have fewer examples on average.
    assert!(
        mean(&os_examples) < 0.9 * mean(&truth_examples),
        "over-selection mean {} vs ground truth {}",
        mean(&os_examples),
        mean(&truth_examples)
    );
    // AsyncFL stays close to the ground-truth distribution.
    let async_gap = (mean(&async_examples) - mean(&truth_examples)).abs() / mean(&truth_examples);
    assert!(async_gap < 0.15, "async mean deviates by {async_gap:.2}");

    // KS statistics: async is much closer to the ground truth than sync w/ OS.
    let ks_async = async_fl.metrics.ks_against(&truth_examples);
    let ks_os = sync_os.metrics.ks_against(&truth_examples);
    assert!(
        ks_async.d_statistic < ks_os.d_statistic,
        "KS D async {} should be below sync-with-OS {}",
        ks_async.d_statistic,
        ks_os.d_statistic
    );

    // The execution times of clients aggregated under over-selection are
    // shorter (the stragglers were discarded).
    let truth_times = ground_truth.metrics.aggregated_execution_times();
    let os_times = sync_os.metrics.aggregated_execution_times();
    assert!(mean(&os_times) < mean(&truth_times));
}
