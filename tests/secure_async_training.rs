//! Cross-crate integration test: buffered asynchronous aggregation with the
//! TEE-based secure-aggregation protocol in the loop.
//!
//! Every aggregation buffer is computed twice: once in the clear with
//! [`FedBuffAggregator`]-style weighted sums, and once through the full
//! AsyncSecAgg protocol (masking, seed transport, TSA unmasking).  The two
//! paths must agree to fixed-point precision, the TSA must never see more
//! than a constant number of bytes per client, and the server must never see
//! an individual plaintext update.

use papaya_core::client::ClientTrainer;
use papaya_core::server_opt::{FedAvg, ServerOptimizer};
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_data::population::{Population, PopulationConfig};
use papaya_nn::params::ParamVec;
use papaya_secagg::{SecAggClient, SecAggConfig, Tsa, UntrustedAggregator};

#[test]
fn secure_buffers_match_cleartext_aggregation() {
    let population = Population::generate(&PopulationConfig::default().with_size(64), 23);
    let objective = ProceduralSurrogate::new(&population, SurrogateConfig::default(), 23);
    let dim = objective.parameter_count();

    let buffer_size = 8usize;
    let config = SecAggConfig::insecure_fast(dim, buffer_size);
    let mut tsa = Tsa::new(&config, [0x33u8; 32]);
    let publication = tsa.publication();
    let mut rng = ChaCha20Rng::from_seed([5u8; 32]);

    let mut model = objective.initial_parameters();
    let mut secure_model = model.clone();
    let mut opt_clear = FedAvg;
    let mut opt_secure = FedAvg;

    let all: Vec<usize> = (0..objective.num_clients()).collect();
    let initial_loss = objective.evaluate(&model, &all);

    for round in 0..4u64 {
        let initial_messages = tsa.prepare_initial_messages(buffer_size, &mut rng);
        let mut aggregator = UntrustedAggregator::new(&config);
        let mut clear_sum = ParamVec::zeros(dim);
        for (i, init) in initial_messages.iter().enumerate() {
            let client = (round as usize * buffer_size + i) % objective.num_clients();
            let result = objective.train(client, &secure_model, round * 100 + i as u64);
            // Clients upload the *unweighted* delta through SecAgg; the same
            // deltas are summed in the clear for comparison.
            clear_sum.add_scaled(&result.delta, 1.0);
            let msg = SecAggClient::participate(
                result.delta.as_slice(),
                init,
                &publication,
                &config,
                &mut rng,
            )
            .expect("attestation verifies");
            // The masked update must not equal the plaintext encoding.
            assert_ne!(
                msg.masked_update,
                config.codec.encode_vec(result.delta.as_slice()),
                "masked update leaked plaintext"
            );
            aggregator.submit(msg, &mut tsa).expect("TSA accepts");
        }
        let secure_sum = ParamVec::from_vec(aggregator.finalize(&mut tsa).expect("threshold met"));

        // Fixed-point error per element is bounded by clients / scale.
        let max_err = secure_sum
            .as_slice()
            .iter()
            .zip(clear_sum.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-2, "secure vs clear mismatch: {max_err}");

        // Apply the (mean) update to both models.
        let mut clear_delta = clear_sum.clone();
        clear_delta.scale(1.0 / buffer_size as f32);
        let mut secure_delta = secure_sum;
        secure_delta.scale(1.0 / buffer_size as f32);
        opt_clear.apply(&mut model, &clear_delta);
        opt_secure.apply(&mut secure_model, &secure_delta);
    }

    // Both models improved and stayed numerically close.
    let clear_loss = objective.evaluate(&model, &all);
    let secure_loss = objective.evaluate(&secure_model, &all);
    assert!(clear_loss < initial_loss);
    assert!(secure_loss < initial_loss);
    assert!((clear_loss - secure_loss).abs() < 0.05 * initial_loss);

    // Host→TEE traffic is constant per client, independent of the model size.
    let stats = tsa.boundary_stats();
    let per_client = stats.bytes_in as f64 / (4.0 * buffer_size as f64);
    assert!(
        per_client < 1_000.0,
        "per-client TEE traffic should be a few hundred bytes, got {per_client}"
    );
}

#[test]
fn tsa_refuses_to_unmask_below_threshold_even_mid_training() {
    let config = SecAggConfig::insecure_fast(16, 3);
    let mut tsa = Tsa::new(&config, [0x44u8; 32]);
    let publication = tsa.publication();
    let mut rng = ChaCha20Rng::from_seed([6u8; 32]);
    let inits = tsa.prepare_initial_messages(2, &mut rng);
    let mut aggregator = UntrustedAggregator::new(&config);
    for init in &inits {
        let msg = SecAggClient::participate(&[1.0f32; 16], init, &publication, &config, &mut rng)
            .unwrap();
        aggregator.submit(msg, &mut tsa).unwrap();
    }
    // Only 2 of the required 3 clients contributed: the server learns nothing.
    assert!(aggregator.finalize(&mut tsa).is_err());
}
