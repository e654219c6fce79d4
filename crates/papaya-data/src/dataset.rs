//! Federated dataset containers.
//!
//! A [`FederatedTextDataset`] pairs a synthetic device [`Population`] with
//! per-client character-level text, split into train/validation/test sets as
//! described in Section 7.1 ("We partition each client's data into train,
//! test, and validation sets randomly").  No run tunes on the validation
//! split, so it is held out and dropped rather than stored.  Its sentences
//! are still drawn, and still shuffled with the rest: deleting those draws
//! would move every sentence after them, and with it the bits that
//! `lm-tiny`'s golden line and `papaya-lm`'s `tests/golden_bits.rs` pin.
//!
//! Each split is one [`Sequences`]: every token of every sequence back to
//! back, one byte a token, plus one `u32` end offset a sequence, both at
//! exact capacity.  An `lm-pool` client then holds one byte per character
//! and four per sentence, and a client costs four allocations however many
//! sentences it holds (`docs/SCALING.md`).

use crate::population::Population;
use crate::text::{vocab_size, TextGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Token sequences stored back to back: `tokens` holds every sequence's
/// token ids in order, and `ends[i]` is the offset one past sequence `i`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sequences {
    tokens: Vec<u8>,
    ends: Vec<u32>,
}

impl Sequences {
    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns true when there are no sequences.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The token ids of sequence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.tokens[start..self.ends[i] as usize]
    }

    /// Every sequence, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let tokens = self.tokens.as_slice();
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let sequence = &tokens[start..end as usize];
            start = end as usize;
            sequence
        })
    }

    /// Closes the sequence whose tokens were appended since the last end.
    fn close(&mut self) {
        let end = u32::try_from(self.tokens.len())
            .unwrap_or_else(|_| panic!("a client's text exceeds u32::MAX tokens"));
        self.ends.push(end);
    }

    /// The sequences `picks` names, in that order, at exact capacity.
    fn select(&self, picks: &[usize]) -> Sequences {
        let total = picks.iter().map(|&i| self.get(i).len()).sum();
        let mut selected = Sequences {
            tokens: Vec::with_capacity(total),
            ends: Vec::with_capacity(picks.len()),
        };
        for &i in picks {
            selected.tokens.extend_from_slice(self.get(i));
            selected.close();
        }
        selected
    }
}

/// One client's local data: token sequences split into train/test (the
/// validation split is held out, see the module docs).
#[derive(Clone, Debug, Default)]
pub struct ClientDataset {
    /// Training sequences.
    pub train: Sequences,
    /// Test sequences.
    pub test: Sequences,
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
        // One client's sentences and their shuffled order, reused across
        // clients; only the kept splits are copied out.
        let mut all = Sequences::default();
        let mut order = Vec::new();
        for device in population.iter() {
            let volume_percentile = device.num_examples as f64 / max_examples;
            let mut generator =
                TextGenerator::for_client(device.id as u64, volume_percentile, seed);
            let n = device.num_examples;
            all.tokens.clear();
            all.ends.clear();
            for _ in 0..n {
                generator.sentence(words_per_sentence, &mut all.tokens);
                all.close();
            }
            // Shuffle then split 80/10/10, keeping at least one training
            // example per client.
            order.clear();
            order.extend(0..n);
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let n_test = (n / 10).min(n.saturating_sub(1));
            let n_val = (n / 10).min(n.saturating_sub(1 + n_test));
            clients.push(ClientDataset {
                train: all.select(&order[..n - n_test - n_val]),
                test: all.select(&order[n - n_test..]),
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
            for seq in data.client(i).train.iter() {
                assert!(seq.iter().all(|&t| usize::from(t) < v));
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

    /// FNV-1a over every client's `num_train()`, then per split its
    /// sequence count and each sequence's length and token bytes.
    fn corpus_digest(data: &FederatedTextDataset) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for id in 0..data.len() {
            let client = data.client(id);
            fold(&(client.num_train() as u64).to_le_bytes());
            for split in [&client.train, &client.test] {
                fold(&(split.len() as u64).to_le_bytes());
                for sequence in split.iter() {
                    fold(&(sequence.len() as u64).to_le_bytes());
                    fold(sequence);
                }
            }
        }
        hash
    }

    /// `lm-pool`'s population config: 12–200 examples a device.
    fn lm_pool_population(size: usize, seed: u64) -> Population {
        let mut config = PopulationConfig::default().with_size(size);
        config.min_examples = 12;
        config.max_examples = 200;
        Population::generate(&config, seed)
    }

    /// Every token, boundary and order, pinned independently of the model
    /// that trains on them.  The constants were computed from the
    /// one-`Vec<usize>`-per-sentence corpus this store replaced.
    #[test]
    fn corpus_digest_matches_the_committed_constants() {
        let lm_pool = FederatedTextDataset::generate(&lm_pool_population(300, 42), 4, 42);
        assert_eq!(corpus_digest(&lm_pool), 0xb785_f09c_d7d5_70be);
        let (_, default) = small_dataset();
        assert_eq!(corpus_digest(&default), 0x95e4_ea72_db14_7322);
    }

    fn capacity_bytes<T>(buffer: &Vec<T>) -> usize {
        buffer.capacity() * std::mem::size_of::<T>()
    }

    /// One byte a token, four a sequence, and no slack: a return to wider
    /// tokens or to one allocation per sentence fails here.
    #[test]
    fn splits_hold_one_byte_a_token_and_four_a_sequence() {
        let data = FederatedTextDataset::generate(&lm_pool_population(100, 7), 4, 7);
        for id in 0..data.len() {
            for split in [&data.client(id).train, &data.client(id).test] {
                let tokens: usize = split.iter().map(<[u8]>::len).sum();
                let held = capacity_bytes(&split.tokens) + capacity_bytes(&split.ends);
                assert_eq!(held, tokens + 4 * split.len(), "client {id}");
            }
        }
    }

    #[test]
    fn get_and_iter_agree_on_every_boundary() {
        let mut sequences = Sequences::default();
        for text in [&b"ab"[..], b"", b"c", b"def"] {
            sequences.tokens.extend_from_slice(text);
            sequences.close();
        }
        let listed: Vec<&[u8]> = sequences.iter().collect();
        assert_eq!(listed, [&b"ab"[..], b"", b"c", b"def"]);
        for (i, sequence) in listed.iter().enumerate() {
            assert_eq!(sequences.get(i), *sequence);
        }
        let picked = sequences.select(&[3, 0]);
        assert_eq!(picked.iter().collect::<Vec<_>>(), [&b"def"[..], b"ab"]);
        assert_eq!(picked.tokens.capacity(), 5);
        assert!(Sequences::default().is_empty());
    }
}
