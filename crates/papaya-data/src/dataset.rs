//! Federated dataset containers.
//!
//! A [`FederatedTextDataset`] pairs a synthetic device [`Population`] with
//! per-client character-level text, split into train/validation/test sets as
//! described in Section 7.1 ("We partition each client's data into train,
//! test, and validation sets randomly").  No run tunes on the validation
//! split, so it is held out and dropped rather than stored.

use crate::population::Population;
use crate::text::{vocab_size, TextGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One client's local data: token sequences split into train/test (the
/// validation split is held out, see the module docs).
#[derive(Clone, Debug, Default)]
pub struct ClientDataset {
    /// Training sequences (each a vector of character token ids).
    pub train: Vec<Vec<usize>>,
    /// Test sequences.
    pub test: Vec<Vec<usize>>,
}

impl ClientDataset {
    /// Number of training examples.
    pub fn num_train(&self) -> usize {
        self.train.len()
    }
}

/// A federated character-level text dataset over a device population.
#[derive(Clone, Debug)]
pub struct FederatedTextDataset {
    clients: Vec<ClientDataset>,
}

impl FederatedTextDataset {
    /// Generates per-client data matching each device's `num_examples`.
    ///
    /// `words_per_sentence` controls sequence length (kept short so on-device
    /// training of the small LSTM stays cheap).  The split is 80/10/10.
    pub fn generate(population: &Population, words_per_sentence: usize, seed: u64) -> Self {
        let max_examples = population
            .iter()
            .map(|d| d.num_examples)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let mut clients = Vec::with_capacity(population.len());
        let mut rng = StdRng::seed_from_u64(seed);
        for device in population.iter() {
            let volume_percentile = device.num_examples as f64 / max_examples;
            let mut generator =
                TextGenerator::for_client(device.id as u64, volume_percentile, seed);
            let n = device.num_examples;
            let mut sequences: Vec<Vec<usize>> = (0..n)
                .map(|_| generator.sentence(words_per_sentence))
                .collect();
            // Shuffle then split 80/10/10, keeping at least one training
            // example per client.
            for i in (1..sequences.len()).rev() {
                let j = rng.gen_range(0..=i);
                sequences.swap(i, j);
            }
            let n_test = (n / 10).min(n.saturating_sub(1));
            let n_val = (n / 10).min(n.saturating_sub(1 + n_test));
            let test = sequences.split_off(n - n_test);
            sequences.truncate(n - n_test - n_val);
            clients.push(ClientDataset {
                train: sequences,
                test,
            });
        }
        FederatedTextDataset { clients }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns true when there are no clients.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The dataset of client `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: usize) -> &ClientDataset {
        &self.clients[id]
    }

    /// Size of the character vocabulary models must use.
    pub fn vocab_size(&self) -> usize {
        vocab_size()
    }

    /// Total number of training examples across all clients.
    pub fn total_train_examples(&self) -> usize {
        self.clients.iter().map(|c| c.num_train()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};

    fn small_dataset() -> (Population, FederatedTextDataset) {
        let pop = Population::generate(&PopulationConfig::default().with_size(50), 11);
        let data = FederatedTextDataset::generate(&pop, 4, 11);
        (pop, data)
    }

    #[test]
    fn one_client_dataset_per_device() {
        let (pop, data) = small_dataset();
        assert_eq!(data.len(), pop.len());
    }

    #[test]
    fn example_counts_match_population() {
        let (pop, data) = small_dataset();
        for device in pop.iter() {
            let n = device.num_examples;
            let c = data.client(device.id);
            let held_out = (n / 10).min(n.saturating_sub(1 + c.test.len()));
            assert_eq!(
                c.num_train() + held_out + c.test.len(),
                n,
                "client {}",
                device.id
            );
        }
    }

    #[test]
    fn every_client_has_training_data() {
        let (_, data) = small_dataset();
        for i in 0..data.len() {
            assert!(
                data.client(i).num_train() >= 1,
                "client {i} has no train data"
            );
        }
    }

    #[test]
    fn tokens_are_in_vocabulary() {
        let (_, data) = small_dataset();
        let v = data.vocab_size();
        for i in 0..data.len() {
            for seq in &data.client(i).train {
                assert!(seq.iter().all(|&t| t < v));
            }
        }
    }

    #[test]
    fn splits_are_roughly_80_10_10_for_large_clients() {
        let (pop, data) = small_dataset();
        if let Some(device) = pop.iter().find(|d| d.num_examples >= 100) {
            let c = data.client(device.id);
            let n = device.num_examples as f64;
            assert!((c.num_train() as f64) > 0.7 * n);
            assert!((c.test.len() as f64) < 0.2 * n);
        };
    }

    #[test]
    fn deterministic_generation() {
        let pop = Population::generate(&PopulationConfig::default().with_size(10), 3);
        let a = FederatedTextDataset::generate(&pop, 3, 5);
        let b = FederatedTextDataset::generate(&pop, 3, 5);
        assert_eq!(a.client(4).train, b.client(4).train);
    }
}
