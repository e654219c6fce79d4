//! The federated client trainer for the language model.

use crate::model::{CharLstm, LmConfig};
use papaya_core::client::{ClientTrainer, LocalTrainResult};
use papaya_data::dataset::FederatedTextDataset;
use papaya_nn::params::ParamVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Client-side SGD learning rate.
const CLIENT_LEARNING_RATE: f32 = 0.5;

/// Trains the character LSTM on each client's local data and evaluates
/// held-out perplexity.
///
/// Matches the paper's client procedure (Section 7.1): SGD on the client,
/// one local epoch, data split into train/val/test per client.
#[derive(Clone, Debug)]
pub struct LmClientTrainer {
    dataset: Arc<FederatedTextDataset>,
    config: LmConfig,
    /// Cap on training sequences consumed per participation (stands in for
    /// the 4-minute client timeout); at least 1.
    max_sequences_per_round: usize,
    init_seed: u64,
}

impl LmClientTrainer {
    /// Creates a trainer over the given federated dataset.
    ///
    /// # Panics
    ///
    /// Panics if `config.vocab_size` is below the dataset's vocabulary: a
    /// client holding a token the model has no row for could not train.
    pub fn new(dataset: Arc<FederatedTextDataset>, config: LmConfig) -> Self {
        assert!(
            config.vocab_size >= dataset.vocab_size(),
            "LmConfig::vocab_size {} is below the dataset's vocabulary of {}",
            config.vocab_size,
            dataset.vocab_size()
        );
        LmClientTrainer {
            dataset,
            config,
            max_sequences_per_round: 64,
            init_seed: 7,
        }
    }

    /// Sets the per-participation sequence cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero: every `train` would return an all-zero delta
    /// that the server still weights by the client's example count.
    pub fn with_max_sequences(mut self, max: usize) -> Self {
        assert!(max >= 1, "max sequences per round must be at least 1");
        self.max_sequences_per_round = max;
        self
    }

    /// Mean test-set perplexity of `params` over the given clients
    /// (`exp` of the mean per-token cross-entropy) — the Table 1 metric.
    pub fn perplexity(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        let loss = self.evaluate(params, client_ids);
        #[expect(
            clippy::disallowed_methods,
            reason = "reporting only: a perplexity is printed, never fed into a delta or a fingerprint"
        )]
        let perplexity = loss.exp();
        perplexity
    }
}

impl ClientTrainer for LmClientTrainer {
    fn parameter_count(&self) -> usize {
        self.config.parameter_count()
    }

    fn initial_parameters(&self) -> ParamVec {
        CharLstm::new(self.config, self.init_seed).param_vector()
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        let client = self.dataset.client(client_id);
        let mut model = CharLstm::from_params(self.config, global);
        let mut rng = StdRng::seed_from_u64(seed);

        // Visit training sequences in a random order, up to the cap.
        let mut order: Vec<usize> = (0..client.train.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order.truncate(self.max_sequences_per_round);

        let mut loss_sum = 0.0f32;
        let mut loss_count = 0usize;
        for &idx in &order {
            if let Some(loss) = model.train_sequence(client.train.get(idx), CLIENT_LEARNING_RATE) {
                loss_sum += loss;
                loss_count += 1;
            }
        }
        let trained = model.param_vector();
        LocalTrainResult {
            delta: trained.sub(global),
            num_examples: client.num_train(),
            train_loss: if loss_count > 0 {
                loss_sum / loss_count as f32
            } else {
                0.0
            },
        }
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        assert!(!client_ids.is_empty(), "evaluate needs at least one client");
        let model = CharLstm::from_params(self.config, params);
        let sequences = client_ids.iter().flat_map(|&id| {
            let client = self.dataset.client(id);
            // Use the test split; fall back to train data for clients whose
            // split is empty so every client contributes.
            let eval_set = if client.test.is_empty() {
                &client.train
            } else {
                &client.test
            };
            eval_set.iter().take(8)
        });
        let mut total = 0.0f64;
        let mut count = 0usize;
        for loss in model.sequence_losses(sequences) {
            total += loss as f64;
            count += 1;
        }
        if count == 0 {
            return f64::INFINITY;
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_data::population::{Population, PopulationConfig};

    fn trainer(clients: usize) -> LmClientTrainer {
        let pop = Population::generate(&PopulationConfig::default().with_size(clients), 13);
        let data = Arc::new(FederatedTextDataset::generate(&pop, 3, 13));
        LmClientTrainer::new(data, LmConfig::tiny())
    }

    #[test]
    fn delta_has_model_dimension() {
        let t = trainer(5);
        let global = t.initial_parameters();
        let result = t.train(0, &global, 1);
        assert_eq!(result.delta.len(), t.parameter_count());
        assert!(result.num_examples > 0);
        assert!(result.delta.norm() > 0.0);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let t = trainer(5);
        let global = t.initial_parameters();
        assert_eq!(t.train(1, &global, 5), t.train(1, &global, 5));
    }

    #[test]
    fn trainer_is_shareable_across_training_threads() {
        // The parallel executor in papaya-sim hands one Arc'd trainer to a
        // worker pool; the LSTM trainer must be Send + Sync and produce
        // bit-identical results when trained concurrently.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LmClientTrainer>();

        let t = Arc::new(trainer(5));
        let global = Arc::new(t.initial_parameters());
        let expected = t.train(2, &global, 9);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let global = Arc::clone(&global);
                std::thread::spawn(move || t.train(2, &global, 9))
            })
            .collect();
        for worker in workers {
            assert_eq!(worker.join().expect("worker panicked"), expected);
        }
    }

    #[test]
    fn federated_rounds_reduce_population_perplexity() {
        let t = trainer(20);
        let mut params = t.initial_parameters();
        let all: Vec<usize> = (0..20).collect();
        let before = t.perplexity(&params, &all);
        // 5 rounds of simple FedAvg over 8 clients each.
        for round in 0..5u64 {
            let mut aggregate = ParamVec::zeros(params.len());
            let mut weight = 0.0f32;
            for c in 0..8usize {
                let client = ((round as usize * 8) + c) % 20;
                let result = t.train(client, &params, round * 100 + c as u64);
                aggregate.add_scaled(&result.delta, result.num_examples as f32);
                weight += result.num_examples as f32;
            }
            aggregate.scale(1.0 / weight);
            params = params.add(&aggregate);
        }
        let after = t.perplexity(&params, &all);
        assert!(
            after < before * 0.9,
            "perplexity did not improve: {before} -> {after}"
        );
        // Perplexity starts near the uniform bound (vocab size).
        assert!(before < 1.5 * papaya_data::text::vocab_size() as f64);
    }

    #[test]
    fn evaluate_uses_held_out_data() {
        let t = trainer(5);
        let params = t.initial_parameters();
        let loss = t.evaluate(&params, &[0, 1, 2]);
        assert!(loss.is_finite());
        assert!(loss > 0.0);
    }

    #[test]
    fn sequence_cap_bounds_work_per_round() {
        let t = trainer(5).with_max_sequences(2);
        let global = t.initial_parameters();
        // Even for the largest client, only two sequences are used, so the
        // delta should be small but non-zero.
        let result = t.train(0, &global, 3);
        assert!(result.delta.norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "max sequences per round must be at least 1")]
    fn zero_sequence_cap_is_rejected() {
        let _ = trainer(2).with_max_sequences(0);
    }

    #[test]
    #[should_panic(expected = "LmConfig::vocab_size 27 is below the dataset's vocabulary of 28")]
    fn vocabulary_smaller_than_the_dataset_is_rejected() {
        let pop = Population::generate(&PopulationConfig::default().with_size(2), 13);
        let data = Arc::new(FederatedTextDataset::generate(&pop, 3, 13));
        let config = LmConfig {
            vocab_size: data.vocab_size() - 1,
            ..LmConfig::tiny()
        };
        let _ = LmClientTrainer::new(data, config);
    }

    #[test]
    fn perplexity_is_exp_of_loss() {
        let t = trainer(3);
        let params = t.initial_parameters();
        let loss = t.evaluate(&params, &[0]);
        let ppl = t.perplexity(&params, &[0]);
        #[expect(clippy::disallowed_methods, reason = "host libm as a test oracle only")]
        let expected = loss.exp();
        assert!((ppl - expected).abs() < 1e-9);
    }
}
