//! Secure-aggregation cost experiment: Figure 6, plus a measured end-to-end
//! run of the protocol used by the Criterion bench.

use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_secagg::cost::TeeBoundaryCostModel;
use papaya_secagg::{SecAggClient, SecAggConfig, Tsa, UntrustedAggregator};

/// One row of Figure 6: data-transfer time across the TEE boundary for the
/// naive design and AsyncSecAgg, for a 20 MB model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig6Row {
    /// Aggregation goal `K`.
    pub aggregation_goal: usize,
    /// Naive TSA transfer time in milliseconds.
    pub naive_ms: f64,
    /// AsyncSecAgg transfer time in milliseconds.
    pub async_secagg_ms: f64,
}

/// Computes Figure 6 for the paper's K values and a 20 MB model.
pub fn fig6() -> Vec<Fig6Row> {
    let model_bytes = 20_000_000u64;
    let cost = TeeBoundaryCostModel::default();
    [10usize, 50, 100, 500, 1000]
        .into_iter()
        .map(|k| Fig6Row {
            aggregation_goal: k,
            naive_ms: cost.naive_time_s(k, model_bytes) * 1e3,
            async_secagg_ms: cost.async_secagg_time_s(k, model_bytes) * 1e3,
        })
        .collect()
}

/// Runs the real protocol end-to-end for `clients` clients over vectors of
/// `vector_len` elements and returns the measured host→TEE boundary bytes
/// per client (which Figure 6 asserts is constant in the model size).
pub fn measured_boundary_bytes_per_client(clients: usize, vector_len: usize) -> f64 {
    let config = SecAggConfig::insecure_fast(vector_len, clients);
    let mut tsa = Tsa::new(&config, [0x42u8; 32]);
    let publication = tsa.publication();
    let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
    let initial = tsa.prepare_initial_messages(clients, &mut rng);
    let mut aggregator = UntrustedAggregator::new(&config);
    let update = vec![0.01f32; vector_len];
    for init in &initial {
        #[expect(
            clippy::expect_used,
            reason = "the publication is this TSA's own, so its attestation verifies"
        )]
        let msg = SecAggClient::participate(&update, init, &publication, &config, &mut rng)
            .expect("attestation verifies");
        #[expect(
            clippy::expect_used,
            reason = "each upload answers a distinct fresh initial message of this TSA"
        )]
        aggregator.submit(msg, &mut tsa).expect("accepted");
    }
    #[expect(
        clippy::expect_used,
        reason = "all `clients` uploads were accepted and the config's threshold is `clients`"
    )]
    let _ = aggregator.finalize(&mut tsa).expect("threshold met");
    tsa.boundary_stats().bytes_in as f64 / clients as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes_match_paper() {
        let rows = fig6();
        // Naive grows linearly with K; AsyncSecAgg is nearly flat.
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.naive_ms / first.naive_ms > 50.0);
        assert!(last.async_secagg_ms / first.async_secagg_ms < 3.0);
        // At K = 1000, the naive design takes seconds (paper: ~6500 ms).
        assert!(last.naive_ms > 4000.0);
        assert!(last.async_secagg_ms < 300.0);
    }

    #[test]
    fn measured_boundary_bytes_are_independent_of_model_size() {
        let small = measured_boundary_bytes_per_client(4, 64);
        let large = measured_boundary_bytes_per_client(4, 4096);
        assert!((small - large).abs() < 1.0, "{small} vs {large}");
    }
}
