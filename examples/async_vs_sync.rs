//! AsyncFL vs SyncFL: the paper's headline comparison in miniature.
//!
//! ```bash
//! cargo run --release --example async_vs_sync
//! ```
//!
//! Runs the same task with synchronous rounds (30 % over-selection) and with
//! buffered asynchronous aggregation at the same concurrency, to the same
//! target loss, and reports wall-clock (virtual) time, communication trips,
//! server-update frequency, and utilization.

use papaya_core::client::ClientTrainer;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use std::sync::Arc;

fn run(
    task: TaskConfig,
    population: &Population,
    trainer: &Arc<ProceduralSurrogate>,
    target: f64,
) -> TaskReport {
    // Evaluate often: time-to-target is quantized by the evaluation
    // interval, and a coarse interval drowns the comparison in noise.
    Scenario::builder()
        .population(population.clone())
        .task_with_trainer(task, trainer.clone())
        .limits(
            RunLimits::default()
                .with_target_loss(target)
                .with_max_virtual_time_hours(100.0),
        )
        .eval(EvalPolicy::default().with_interval_s(10.0))
        .seed(7)
        .build()
        .run()
        .into_single()
}

fn main() {
    let concurrency = 260;
    let population = Population::generate(&PopulationConfig::default().with_size(5_000), 7);
    let trainer = Arc::new(ProceduralSurrogate::new(
        &population,
        SurrogateConfig::default(),
        7,
    ));
    let all: Vec<usize> = (0..trainer.num_clients()).collect();
    let initial = trainer.evaluate(&trainer.initial_parameters(), &all);
    let floor = trainer.evaluate(&trainer.population_optimum(), &all);
    let target = floor + 0.05 * (initial - floor);
    println!("initial loss {initial:.3}, floor {floor:.3}, target {target:.3}\n");

    let sync = run(
        TaskConfig::sync_task("sync", concurrency, 0.3),
        &population,
        &trainer,
        target,
    );
    let async_fl = run(
        TaskConfig::async_task("async", concurrency, 32),
        &population,
        &trainer,
        target,
    );

    let fmt = |r: &TaskReport| {
        format!(
            "time to target = {:>7} h | trips = {:6} | server updates/h = {:8.1} | mean active = {:5.1}",
            r.hours_to_target
                .map(|h| format!("{h:.2}"))
                .unwrap_or_else(|| ">cap".into()),
            r.comm_trips(),
            r.server_updates_per_hour(),
            r.metrics.mean_active_clients(),
        )
    };
    println!("SyncFL  (30% over-selection): {}", fmt(&sync));
    println!("AsyncFL (K = 32)            : {}", fmt(&async_fl));
    if let (Some(s), Some(a)) = (sync.hours_to_target, async_fl.hours_to_target) {
        println!(
            "\nAsyncFL is {:.1}x faster and {:.1}x more communication-efficient on this run.",
            s / a,
            sync.comm_trips() as f64 / async_fl.comm_trips() as f64
        );
    }
}
