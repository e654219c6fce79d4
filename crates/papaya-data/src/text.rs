//! Synthetic non-IID text generation for the language-model experiments.
//!
//! The paper trains a next-word-prediction LSTM on keyboard text.  That data
//! is private, so the reproduction generates a synthetic corpus with the
//! properties that matter for the experiments:
//!
//! * **Non-IID clients** — each client draws sentences from a client-specific
//!   mixture over a small set of "topics"; clients with many examples are
//!   biased towards a distinct topic mixture so that excluding them (as
//!   over-selection does) measurably hurts their perplexity (Table 1).
//! * **Character-level vocabulary** — small vocabulary so a tiny LSTM can be
//!   trained on-device quickly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed character vocabulary: lowercase letters, space, and end-of-text.
pub(crate) const VOCAB: &str = "abcdefghijklmnopqrstuvwxyz .";

/// Word lists per topic.  Deliberately distinct letter statistics per topic
/// so topic mixtures are visible to a character-level model.
const TOPIC_WORDS: [&[&str]; 4] = [
    &[
        "meet", "team", "deadline", "agenda", "email", "demand", "lead", "update",
    ],
    &[
        "pizza", "pasta", "salad", "apple", "banana", "salsa", "snack", "bread",
    ],
    &[
        "goal", "ball", "coach", "squad", "match", "track", "score", "champ",
    ],
    &[
        "quiz", "exam", "study", "major", "campus", "topic", "query", "jury",
    ],
];

/// Token id of the space between words.
const SPACE_ID: usize = 26;
/// Token id of the end-of-text character.
const STOP_ID: usize = 27;

/// Maps a character to its vocabulary index.
///
/// # Panics
///
/// Panics if the character is not in `VOCAB`.
pub fn char_to_id(c: char) -> usize {
    match c {
        'a'..='z' => c as usize - 'a' as usize,
        ' ' => SPACE_ID,
        '.' => STOP_ID,
        _ => panic!("character {c:?} not in vocabulary"),
    }
}

/// Number of tokens in the character vocabulary.
pub fn vocab_size() -> usize {
    // `VOCAB` is ASCII: one byte a character.
    VOCAB.len()
}

/// A generator of client-specific synthetic sentences.
#[derive(Clone, Debug)]
pub struct TextGenerator {
    /// Mixture weights over topics (sums to 1).
    topic_mixture: Vec<f64>,
    rng: StdRng,
    /// The sentence being built; kept so that a sentence costs one
    /// allocation, of exactly its own length.
    scratch: Vec<usize>,
}

impl TextGenerator {
    /// Creates a generator for a client.
    ///
    /// `data_volume_percentile` in `[0, 1]` shifts the topic mixture: clients
    /// in the upper tail of data volume lean heavily on the last topic, which
    /// is how the reproduction encodes the paper's observation that
    /// heavy-data clients have a distinct distribution.
    pub fn for_client(client_id: u64, data_volume_percentile: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ client_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let topics = TOPIC_WORDS.len();
        let mut topic_mixture: Vec<f64> = (0..topics).map(|_| rng.gen_range(0.1..1.0)).collect();
        // Heavy-data clients concentrate on the final topic.
        let tail_weight = (data_volume_percentile.clamp(0.0, 1.0)).powi(3) * 8.0;
        topic_mixture[topics - 1] += tail_weight;
        let sum: f64 = topic_mixture.iter().sum();
        for w in topic_mixture.iter_mut() {
            *w /= sum;
        }
        TextGenerator {
            topic_mixture,
            rng,
            scratch: Vec::new(),
        }
    }

    /// Samples one sentence of roughly `words` words and returns it as a
    /// vector of character token ids terminated by the end-of-text token.
    pub fn sentence(&mut self, words: usize) -> Vec<usize> {
        self.scratch.clear();
        for i in 0..words.max(1) {
            let topic = self.sample_topic();
            let word_list = TOPIC_WORDS[topic];
            let word = word_list[self.rng.gen_range(0..word_list.len())];
            if i > 0 {
                self.scratch.push(SPACE_ID);
            }
            // Topic words are lowercase ASCII letters, whose ids are their
            // offsets from 'a'.
            self.scratch
                .extend(word.bytes().map(|b| usize::from(b - b'a')));
        }
        self.scratch.push(STOP_ID);
        // `to_vec` allocates exactly `len` elements; a dataset holds
        // hundreds of thousands of these, so slack capacity is resident memory.
        self.scratch.to_vec()
    }

    fn sample_topic(&mut self) -> usize {
        let r: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (i, w) in self.topic_mixture.iter().enumerate() {
            acc += w;
            if r < acc {
                return i;
            }
        }
        self.topic_mixture.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_roundtrip() {
        for (i, c) in VOCAB.chars().enumerate() {
            assert_eq!(char_to_id(c), i);
        }
        assert_eq!(vocab_size(), 28);
    }

    #[test]
    #[should_panic(expected = "not in vocabulary")]
    fn unknown_char_panics() {
        let _ = char_to_id('!');
    }

    #[test]
    fn sentences_are_valid_token_sequences() {
        let mut g = TextGenerator::for_client(3, 0.5, 1);
        for _ in 0..20 {
            let s = g.sentence(5);
            assert!(!s.is_empty());
            assert!(s.iter().all(|&t| t < vocab_size()));
            assert_eq!(*s.last().unwrap(), char_to_id('.'));
        }
    }

    /// The construction `sentence` replaced: build the text, then look every
    /// character up.
    fn sentence_through_a_string(g: &mut TextGenerator, words: usize) -> Vec<usize> {
        let mut text = String::new();
        for i in 0..words.max(1) {
            let topic = g.sample_topic();
            let word_list = TOPIC_WORDS[topic];
            let word = word_list[g.rng.gen_range(0..word_list.len())];
            if i > 0 {
                text.push(' ');
            }
            text.push_str(word);
        }
        text.push('.');
        text.chars().map(char_to_id).collect()
    }

    #[test]
    fn sentences_equal_the_string_construction_at_exact_capacity() {
        let mut direct = TextGenerator::for_client(5, 0.7, 3);
        let mut reference = direct.clone();
        for words in [0, 1, 2, 4, 9, 1, 30] {
            let sentence = direct.sentence(words);
            assert_eq!(sentence, sentence_through_a_string(&mut reference, words));
            assert_eq!(sentence.capacity(), sentence.len());
        }
        // Every topic word is made of the letters whose ids are offsets.
        for word in TOPIC_WORDS.iter().flat_map(|list| list.iter()) {
            assert!(word.bytes().all(|b| b.is_ascii_lowercase()), "{word}");
        }
    }

    #[test]
    fn generator_is_deterministic_per_client() {
        let mut a = TextGenerator::for_client(7, 0.2, 9);
        let mut b = TextGenerator::for_client(7, 0.2, 9);
        assert_eq!(a.sentence(4), b.sentence(4));
        let mut c = TextGenerator::for_client(8, 0.2, 9);
        // Different clients draw different text (overwhelmingly likely).
        let s1: Vec<usize> = (0..5).flat_map(|_| a.sentence(4)).collect();
        let s2: Vec<usize> = (0..5).flat_map(|_| c.sentence(4)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn heavy_data_clients_prefer_tail_topic() {
        let g_light = TextGenerator::for_client(1, 0.0, 5);
        let g_heavy = TextGenerator::for_client(1, 1.0, 5);
        let tail = TOPIC_WORDS.len() - 1;
        assert!(g_heavy.topic_mixture[tail] > 0.7);
        assert!(g_heavy.topic_mixture[tail] > g_light.topic_mixture[tail]);
    }

    #[test]
    fn mixture_sums_to_one() {
        for pct in [0.0, 0.3, 0.9, 1.0] {
            let g = TextGenerator::for_client(11, pct, 2);
            let sum: f64 = g.topic_mixture.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
