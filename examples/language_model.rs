//! Federated training of the character-level LSTM language model.
//!
//! ```bash
//! cargo run --release --example language_model
//! ```
//!
//! Builds a small non-IID federated text corpus, trains the LSTM with
//! asynchronous FedBuff through the system simulator, and reports test
//! perplexity for all clients and for the heavy-data clients (the Table 1
//! metric).  Panics unless test perplexity falls below half its initial
//! value for both client sets.

use papaya_core::client::ClientTrainer;
use papaya_core::TaskConfig;
use papaya_data::dataset::FederatedTextDataset;
use papaya_data::population::{Population, PopulationConfig};
use papaya_lm::{LmClientTrainer, LmConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
use std::sync::Arc;

fn main() {
    let population = Population::generate(&PopulationConfig::default().with_size(120), 3);
    let dataset = Arc::new(FederatedTextDataset::generate(&population, 4, 3));
    println!(
        "federated corpus: {} clients, {} training sequences, vocabulary of {} characters",
        dataset.len(),
        dataset.total_train_examples(),
        dataset.vocab_size()
    );

    let trainer = Arc::new(LmClientTrainer::new(dataset, LmConfig::tiny()).with_max_sequences(12));
    let all: Vec<usize> = (0..population.len()).collect();
    let heavy = population.ids_above_example_percentile(75.0);
    let initial = trainer.initial_parameters();
    let initial_ppl = trainer.perplexity(&initial, &all);
    let initial_heavy_ppl = trainer.perplexity(&initial, &heavy);
    println!(
        "initial test perplexity: {initial_ppl:.2} (uniform would be {:.0})\n",
        28.0
    );

    let report = Scenario::builder()
        .population(population)
        .task_with_trainer(TaskConfig::async_task("char-lm", 16, 4), trainer.clone())
        .limits(
            RunLimits::default()
                .with_max_client_updates(400)
                .with_max_virtual_time_hours(200.0),
        )
        .eval(
            EvalPolicy::default()
                .with_interval_s(20_000.0)
                .with_sample_size(24),
        )
        .seed(3)
        .build()
        .run();
    let virtual_hours = report.virtual_hours;
    let result = report.into_single();

    println!(
        "after {} client updates ({} server updates, {:.1} virtual hours):",
        result.comm_trips(),
        result.server_updates(),
        virtual_hours
    );
    let final_ppl = trainer.perplexity(&result.final_params, &all);
    let final_heavy_ppl = trainer.perplexity(&result.final_params, &heavy);
    println!("  test perplexity, all clients        : {final_ppl:.2}");
    println!("  test perplexity, heavy-data clients : {final_heavy_ppl:.2}");
    for (clients, before, after) in [
        ("all", initial_ppl, final_ppl),
        ("heavy-data", initial_heavy_ppl, final_heavy_ppl),
    ] {
        assert!(
            after < 0.5 * before,
            "{clients} clients: test perplexity {before:.2} -> {after:.2} did not halve"
        );
    }
}
