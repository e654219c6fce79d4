//! The language-model quality experiment behind Table 1.
//!
//! The paper trains the production LSTM for one million client updates and
//! reports test perplexity for all clients and for the clients in the 75th
//! and 99th data-volume percentiles, under three configurations: SyncFL
//! without over-selection, SyncFL with over-selection, and AsyncFL.  The
//! reproduction runs the same three configurations on the synthetic
//! federated text corpus with a scaled-down update budget.

use crate::experiments::common::Scale;
use papaya_core::TaskConfig;
use papaya_data::dataset::FederatedTextDataset;
use papaya_data::population::{Population, PopulationConfig};
use papaya_lm::{LmClientTrainer, LmConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
use papaya_sim::ServerOptimizerKind;
use std::sync::Arc;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Configuration label.
    pub(crate) method: &'static str,
    /// Test perplexity over all clients.
    pub(crate) all: f64,
    /// Test perplexity over clients at or above the 75th data-volume
    /// percentile.
    pub(crate) p75: f64,
    /// Test perplexity over clients at or above the 99th data-volume
    /// percentile.
    pub(crate) p99: f64,
    /// Virtual hours the configuration ran for.
    pub(crate) hours: f64,
    /// Client updates received.
    pub(crate) client_updates: u64,
}

/// Scale parameters for the Table 1 run.
struct LmScale {
    population: usize,
    concurrency: usize,
    aggregation_goal: usize,
    client_update_budget: u64,
}

fn lm_scale(scale: Scale) -> LmScale {
    match scale {
        Scale::Quick => LmScale {
            population: 150,
            concurrency: 24,
            aggregation_goal: 6,
            client_update_budget: 600,
        },
        Scale::Full => LmScale {
            population: 600,
            concurrency: 64,
            aggregation_goal: 16,
            client_update_budget: 4_000,
        },
    }
}

/// Runs Table 1: returns one row per configuration.
pub fn table1(scale: Scale, seed: u64) -> Vec<Table1Row> {
    let s = lm_scale(scale);
    let population =
        Population::generate(&PopulationConfig::default().with_size(s.population), seed);
    let dataset = Arc::new(FederatedTextDataset::generate(&population, 4, seed));
    let trainer = Arc::new(LmClientTrainer::new(dataset, LmConfig::tiny()).with_max_sequences(16));

    let all_ids: Vec<usize> = (0..population.len()).collect();
    let p75_ids = population.ids_above_example_percentile(75.0);
    let p99_ids = population.ids_above_example_percentile(99.0);

    let goal = s.aggregation_goal;
    let sync_goal = (s.concurrency as f64 / 1.3).round() as usize;
    let configs: Vec<(&'static str, TaskConfig)> = vec![
        (
            "SyncFL w/o OS",
            TaskConfig::sync_task("sync-noos", sync_goal, 0.0),
        ),
        (
            "SyncFL with OS",
            TaskConfig::sync_task("sync-os", s.concurrency, 0.3),
        ),
        (
            "AsyncFL",
            TaskConfig::async_task("async", s.concurrency, goal),
        ),
    ];

    configs
        .into_iter()
        .map(|(method, task)| {
            let report = Scenario::builder()
                .population(population.clone())
                .task_with_trainer(task, trainer.clone())
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(500.0)
                        .with_max_client_updates(s.client_update_budget),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(50_000.0)
                        .with_sample_size(32),
                )
                .server_optimizer(ServerOptimizerKind::FedAvg)
                .seed(seed)
                .build()
                .run();
            let hours = report.virtual_hours;
            let result = report.into_single();
            Table1Row {
                method,
                all: trainer.perplexity(&result.final_params, &all_ids),
                p75: trainer.perplexity(&result.final_params, &p75_ids),
                p99: trainer.perplexity(&result.final_params, &p99_ids),
                hours,
                client_updates: result.comm_trips(),
            }
        })
        .collect()
}

/// Prints Table 1 in the paper's layout.
pub fn print_table1(rows: &[Table1Row]) {
    println!(
        "{:<16} | {:>8} | {:>8} | {:>8} | {:>10} | {:>14}",
        "Method", "All", "75%", "99%", "Time (h)", "client updates"
    );
    for row in rows {
        println!(
            "{:<16} | {:8.2} | {:8.2} | {:8.2} | {:10.2} | {:14}",
            row.method, row.all, row.p75, row.p99, row.hours, row.client_updates
        );
    }
}
