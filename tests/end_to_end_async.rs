//! Cross-crate integration test: the full asynchronous training pipeline
//! (population → surrogate objective → discrete-event simulation) reproduces
//! the paper's qualitative claims at a small scale.

use papaya_core::client::ClientTrainer;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use std::sync::Arc;

fn setup(seed: u64) -> (Population, Arc<ProceduralSurrogate>) {
    let population = Population::generate(&PopulationConfig::default().with_size(1_500), seed);
    let trainer = Arc::new(ProceduralSurrogate::new(
        &population,
        SurrogateConfig::default(),
        seed,
    ));
    (population, trainer)
}

fn run(
    task: TaskConfig,
    population: &Population,
    trainer: &Arc<ProceduralSurrogate>,
    target: Option<f64>,
    hours: f64,
) -> TaskReport {
    // Evaluate often: time-to-target (and the communication spent getting
    // there) is quantized by the evaluation interval, so a coarse interval
    // drowns the sync/async comparison in measurement noise.
    let mut limits = RunLimits::default().with_max_virtual_time_hours(hours);
    if let Some(t) = target {
        limits = limits.with_target_loss(t);
    }
    let report = Scenario::builder()
        .population(population.clone())
        .task_with_trainer(task, trainer.clone())
        .limits(limits)
        .eval(EvalPolicy::default().with_interval_s(10.0))
        .seed(11)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report.into_single()
}

#[test]
fn async_reaches_target_faster_and_cheaper_than_sync() {
    let (population, trainer) = setup(11);
    let all: Vec<usize> = (0..trainer.num_clients()).collect();
    let initial = trainer.evaluate(&trainer.initial_parameters(), &all);
    let floor = trainer.evaluate(&trainer.population_optimum(), &all);
    let target = floor + 0.1 * (initial - floor);

    let sync = run(
        TaskConfig::sync_task("sync", 130, 0.3),
        &population,
        &trainer,
        Some(target),
        120.0,
    );
    let async_fl = run(
        TaskConfig::async_task("async", 130, 32),
        &population,
        &trainer,
        Some(target),
        120.0,
    );

    let sync_hours = sync.hours_to_target.expect("sync should reach target");
    let async_hours = async_fl.hours_to_target.expect("async should reach target");
    // SyncFL pays at least one straggler-gated round (~minutes); AsyncFL's
    // first buffers complete within seconds, so it reaches the target in
    // strictly less virtual time.
    assert!(
        async_hours < sync_hours,
        "async ({async_hours:.3} h) should beat sync ({sync_hours:.3} h)"
    );
    assert!(
        async_fl.comm_trips() < sync.comm_trips(),
        "async should use fewer communication trips ({} vs {})",
        async_fl.comm_trips(),
        sync.comm_trips()
    );
}

#[test]
fn async_produces_many_more_server_updates_per_hour() {
    let (population, trainer) = setup(13);
    let sync = run(
        TaskConfig::sync_task("sync", 130, 0.3),
        &population,
        &trainer,
        None,
        3.0,
    );
    let async_fl = run(
        TaskConfig::async_task("async", 130, 16),
        &population,
        &trainer,
        None,
        3.0,
    );
    // Figure 8: the async configuration takes far more server steps per hour.
    assert!(
        async_fl.server_updates_per_hour() > 5.0 * sync.server_updates_per_hour(),
        "async {} vs sync {}",
        async_fl.server_updates_per_hour(),
        sync.server_updates_per_hour()
    );
}

#[test]
fn async_utilization_stays_near_the_concurrency_target() {
    let (population, trainer) = setup(17);
    let async_fl = run(
        TaskConfig::async_task("async", 100, 25),
        &population,
        &trainer,
        None,
        2.0,
    );
    // Figure 7: utilization is close to 100 % of the concurrency target.
    assert!(
        async_fl.metrics.mean_active_clients() > 85.0,
        "mean active {}",
        async_fl.metrics.mean_active_clients()
    );
    let sync = run(
        TaskConfig::sync_task("sync", 100, 0.0),
        &population,
        &trainer,
        None,
        2.0,
    );
    assert!(sync.metrics.mean_active_clients() < async_fl.metrics.mean_active_clients());
}

#[test]
fn staleness_grows_with_concurrency_over_aggregation_goal_ratio() {
    let (population, trainer) = setup(19);
    let low_ratio = run(
        TaskConfig::async_task("low", 64, 64),
        &population,
        &trainer,
        None,
        2.0,
    );
    let high_ratio = run(
        TaskConfig::async_task("high", 256, 16),
        &population,
        &trainer,
        None,
        2.0,
    );
    assert!(
        high_ratio.metrics.mean_staleness() > low_ratio.metrics.mean_staleness(),
        "staleness {} vs {}",
        high_ratio.metrics.mean_staleness(),
        low_ratio.metrics.mean_staleness()
    );
}
