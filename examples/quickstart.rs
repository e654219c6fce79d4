//! Quickstart: train a federated task asynchronously with FedBuff.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a synthetic population of 2,000 heterogeneous devices, trains the
//! fast surrogate objective with buffered asynchronous aggregation
//! (concurrency 128, aggregation goal 32), and prints the loss curve and the
//! run summary.

use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
use std::sync::Arc;

fn main() {
    // 1. A synthetic device population: heavy-tailed data volumes, speeds
    //    spanning two orders of magnitude, 8 % dropouts.
    let population = Population::generate(&PopulationConfig::default().with_size(2_000), 42);
    println!(
        "population: {} devices, execution-time/examples correlation = {:.2}",
        population.len(),
        population.time_examples_correlation()
    );

    // 2. A federated objective. The surrogate is a heterogeneous quadratic
    //    that trains in microseconds per client; swap in
    //    `papaya_lm::LmClientTrainer` for the real character-level LSTM.
    let trainer = Arc::new(ProceduralSurrogate::new(
        &population,
        SurrogateConfig::default(),
        42,
    ));

    // 3. An asynchronous task: 128 clients training concurrently, server
    //    update every 32 client updates, stale updates down-weighted by
    //    1/sqrt(1+s).  Composed through the unified Scenario builder — the
    //    same entrypoint drives multi-tenant fleets with crash schedules.
    let scenario = Scenario::builder()
        .population(population)
        .task_with_trainer(TaskConfig::async_task("quickstart", 128, 32), trainer)
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(42)
        .build();

    // 4. Run the discrete-event simulation of the whole system.
    let report = scenario.run();
    let result = report.single();

    println!("\nloss curve (virtual hours, population loss):");
    for (hours, loss) in result.metrics.loss_curve.iter().step_by(2) {
        println!("  {hours:5.2} h   {loss:.4}");
    }
    println!("\nsummary:");
    println!("  stopped because      : {}", report.stop_reason);
    println!("  server model updates : {}", result.server_updates());
    println!("  client updates (trips): {}", result.comm_trips());
    println!(
        "  mean staleness       : {:.2}",
        result.metrics.mean_staleness()
    );
    println!(
        "  mean active clients  : {:.1} / 128",
        result.metrics.mean_active_clients()
    );
    println!("  final loss           : {:.4}", result.final_loss);
}
