//! Asynchronous secure aggregation end to end.
//!
//! ```bash
//! cargo run --release --example secure_aggregation
//! ```
//!
//! Part 1 walks through the full protocol of Section 5 / Appendix B: the
//! TSA publishes its trusted binary in a verifiable log and prepares
//! attested Diffie–Hellman initial messages; ten clients verify the
//! attestation, mask their updates with seed-expanded one-time pads, and
//! upload; the untrusted aggregator sums masked updates and asks the TSA
//! for the aggregated unmask.  It also shows the failure paths: a tampered
//! seed, a replayed key-exchange index, and a wrong trusted binary.
//!
//! Part 2 runs the same protocol *inside the simulation pipeline*: an
//! identical FedBuff scenario is trained twice, in the clear and with
//! `SecAggMode::AsyncSecAgg`, and the report shows they agree to
//! fixed-point tolerance while the TSA released exactly one key per buffer
//! at a few hundred boundary bytes per client.

use papaya_core::config::SecAggMode;
use papaya_core::TaskConfig;
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_data::population::{Population, PopulationConfig};
use papaya_secagg::{SecAggClient, SecAggConfig, Tsa, UntrustedAggregator};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};

fn main() {
    println!("== Part 1: the protocol, step by step ==\n");
    let clients = 10usize;
    let vector_len = 1_000usize;
    // Threshold: the TSA refuses to unmask unless at least 8 clients
    // contributed, so the server can never isolate a small group.
    let config = SecAggConfig::insecure_fast(vector_len, 8);

    // The enclave boots, records its binary in the verifiable log, and
    // pre-generates attested key-exchange initial messages.
    let mut tsa = Tsa::new(&config, [0x5Au8; 32]);
    let publication = tsa.publication();
    let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
    let initial_messages = tsa.prepare_initial_messages(clients, &mut rng);
    println!("TSA prepared {} attested key-exchange messages", clients);

    // Each client verifies the attestation + log inclusion, masks its
    // update, and uploads.
    let mut aggregator = UntrustedAggregator::new(&config);
    let mut expected_sum = vec![0.0f64; vector_len];
    for (i, init) in initial_messages.iter().enumerate() {
        let update: Vec<f32> = (0..vector_len)
            .map(|j| ((i + j) % 13) as f32 * 0.01 - 0.06)
            .collect();
        for (acc, u) in expected_sum.iter_mut().zip(update.iter()) {
            *acc += *u as f64;
        }
        let msg = SecAggClient::participate(&update, init, &publication, &config, &mut rng)
            .expect("attestation should verify");
        aggregator
            .submit(msg, &mut tsa)
            .expect("TSA accepts the seed");
    }
    println!("10 masked updates aggregated; the server never saw a plaintext update.");

    let sum = aggregator.finalize(&mut tsa).expect("threshold met");
    let max_err = sum
        .iter()
        .zip(expected_sum.iter())
        .map(|(s, e)| (*s as f64 - e).abs())
        .fold(0.0f64, f64::max);
    println!("unmasked aggregate matches the true sum (max error {max_err:.2e})");

    let stats = tsa.boundary_stats();
    println!(
        "host->TEE traffic: {} bytes total ({} bytes/client) — independent of the {}-element model",
        stats.bytes_in,
        stats.bytes_in / clients as u64,
        vector_len
    );

    // Failure paths.
    println!("\nfailure handling:");
    let extra = tsa.prepare_initial_messages(2, &mut rng);
    let mut tampered =
        SecAggClient::participate(&[0.0; 1_000], &extra[0], &publication, &config, &mut rng)
            .unwrap();
    let n = tampered.completing.encrypted_seed.len();
    tampered.completing.encrypted_seed[n / 2] ^= 1;
    println!(
        "  tampered encrypted seed  -> {:?}",
        aggregator.submit(tampered, &mut tsa).unwrap_err()
    );

    let mut replayed =
        SecAggClient::participate(&[9.0; 1_000], &extra[1], &publication, &config, &mut rng)
            .unwrap();
    replayed.completing.index = initial_messages[0].index;
    println!(
        "  replayed key-exchange id -> {:?}",
        aggregator.submit(replayed, &mut tsa).unwrap_err()
    );

    let mut wrong_binary = publication.clone();
    wrong_binary.expected_measurement = [0u8; 32];
    println!(
        "  unexpected trusted binary-> {:?}",
        SecAggClient::participate(&[0.0; 1_000], &extra[1], &wrong_binary, &config, &mut rng)
            .unwrap_err()
    );

    println!("\n== Part 2: the protocol inside the Scenario pipeline ==\n");
    let population = Population::generate(&PopulationConfig::default().with_size(400), 11);
    let run = |mode: SecAggMode| {
        Scenario::builder()
            .population(population.clone())
            .task(TaskConfig::async_task("secure-fedbuff", 24, 6).with_secagg(mode))
            .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(11)
            .build()
            .run()
    };
    let clear = run(SecAggMode::Disabled);
    let secure = run(SecAggMode::AsyncSecAgg);
    let (c, s) = (clear.single(), secure.single());
    let max_param_diff = c
        .final_params
        .as_slice()
        .iter()
        .zip(s.final_params.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("identical FedBuff scenario, clear vs AsyncSecAgg:");
    println!(
        "  loss            {:.4} -> {:.4}  vs  {:.4} -> {:.4}",
        c.initial_loss, c.final_loss, s.initial_loss, s.final_loss
    );
    println!(
        "  server updates  {} vs {} (every secure release was a TSA key release: {})",
        c.server_updates(),
        s.server_updates(),
        s.metrics.secure.tsa_key_releases
    );
    println!(
        "  masked updates  {} accepted, {} buffers dropped on crash",
        s.metrics.secure.masked_updates, s.metrics.secure.buffers_dropped_unreleased
    );
    println!(
        "  TEE boundary    {} bytes in total, {:.0} bytes per masked client",
        s.metrics.secure.tee_bytes_in,
        s.metrics.secure.tee_bytes_in_per_client()
    );
    println!(
        "  fidelity        max |secure - clear| parameter gap {:.2e}, max per-release quantization error {:.2e}",
        max_param_diff,
        s.metrics.secure.max_quantization_error()
    );
    assert!(
        max_param_diff < 1e-2,
        "secure run diverged from the clear run"
    );
}
