//! Committed bit patterns of `LmClientTrainer::train` and `evaluate`.
//!
//! The LSTM trainer feeds `Report::fingerprint` through every delta it
//! returns, so a rewrite of its kernels has to keep every bit.  The
//! constants below come from the fused `CharLstm` computing `exp`, `tanh`
//! and `ln` with `papaya_data::math`, so they rest on IEEE 754 basic
//! operations only and hold on any host, whatever its libm; they replaced
//! the constants of the same model on glibc's `expf`, `tanhf` and `logf`.
//! They must hold in the test profile and with `--release`.  A change that
//! means to move them replaces them with the values this test prints on
//! mismatch and says why.

use papaya_core::client::ClientTrainer;
use papaya_data::dataset::FederatedTextDataset;
use papaya_data::population::{Population, PopulationConfig};
use papaya_lm::{LmClientTrainer, LmConfig};
use std::sync::Arc;

/// `(client, seed, fnv1a(delta bits), train_loss bits)`.
const TRAIN: [(usize, u64, u64, u32); 3] = [
    (0, 1, 0xb785_33a3_ea86_6ada, 0x404c_a304),
    (7, 42, 0x0727_be95_4a0f_811a, 0x4047_ae25),
    (19, 1234, 0x380a_c95f_882d_4e88, 0x4040_1843),
];
/// `evaluate` over clients 0..20 on the initial parameters.
const EVAL_INITIAL: u64 = 0x400a_a3a7_c000_0000;
/// `evaluate` over clients 0..20 after applying the three deltas above in
/// order, each trained from the vector the previous one produced.
const EVAL_TRAINED: u64 = 0x4008_07d3_7816_0581;

fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn train_and_evaluate_bits_match_the_committed_constants() {
    let population = Population::generate(&PopulationConfig::default().with_size(20), 5);
    let dataset = Arc::new(FederatedTextDataset::generate(&population, 4, 5));
    let trainer = LmClientTrainer::new(dataset, LmConfig::tiny()).with_max_sequences(8);
    let clients: Vec<usize> = (0..20).collect();

    let mut params = trainer.initial_parameters();
    let eval_initial = trainer.evaluate(&params, &clients).to_bits();

    let mut train = Vec::new();
    for (client, seed, _, _) in TRAIN {
        let result = trainer.train(client, &params, seed);
        train.push((
            client,
            seed,
            fnv1a(result.delta.as_slice()),
            result.train_loss.to_bits(),
        ));
        params = params.add(&result.delta);
    }
    let eval_trained = trainer.evaluate(&params, &clients).to_bits();

    let actual = format!(
        "TRAIN = {train:#x?}\nEVAL_INITIAL = {eval_initial:#x}\nEVAL_TRAINED = {eval_trained:#x}"
    );
    assert!(
        train == TRAIN && eval_initial == EVAL_INITIAL && eval_trained == EVAL_TRAINED,
        "LSTM trainer bits moved; if that is intended, the new constants are:\n{actual}"
    );
}
