//! Host↔TEE boundary cost model (Figure 6).
//!
//! Transferring data across the enclave boundary is expensive: the paper
//! benchmarks ~650 ms to move 100 clients × 20 MB into the TEE (naive
//! aggregation) and extrapolates linearly in the aggregation goal `K`.  The
//! asynchronous SecAgg design moves only a constant ~16-byte seed (plus the
//! key-exchange completion) per client and one model-sized unmask vector per
//! buffer, i.e. `O(K + m)` instead of `O(K · m)`.
//!
//! [`TeeBoundaryCostModel`] converts byte counts into transfer times with a
//! bandwidth calibrated to the paper's measurement, so the reproduction of
//! Figure 6 reports the same order of magnitude.

/// Default per-client TSA payload in bytes: a 16-byte seed, AEAD nonce+tag
/// overhead (44 bytes), a 256-byte DH completing key, and an 8-byte index.
pub(crate) const DEFAULT_PER_CLIENT_TSA_BYTES: u64 = 16 + 44 + 256 + 8;

/// Converts boundary byte counts into transfer time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TeeBoundaryCostModel {
    /// Sustained bytes/second across the enclave boundary.
    pub(crate) bytes_per_second: f64,
    /// Fixed per-message overhead (enclave transition cost) in seconds.
    pub(crate) per_message_overhead_s: f64,
}

impl Default for TeeBoundaryCostModel {
    fn default() -> Self {
        // Calibration: naive TSA with K = 100 clients and a 20 MB model takes
        // ~650 ms (Figure 6), i.e. ~2 GB / 0.65 s ≈ 3.08 GB/s once per-message
        // overheads (100 × 0.1 ms) are subtracted.
        TeeBoundaryCostModel {
            bytes_per_second: 100.0 * 20.0e6 / 0.64,
            per_message_overhead_s: 1.0e-5,
        }
    }
}

impl TeeBoundaryCostModel {
    /// Bytes crossing into the TEE under **naive** aggregation: every client's
    /// full model update.
    pub(crate) fn naive_bytes(aggregation_goal: usize, model_bytes: u64) -> u64 {
        aggregation_goal as u64 * model_bytes
    }

    /// Bytes crossing the TEE boundary under **AsyncSecAgg**: a constant-size
    /// payload per client plus one model-sized unmask vector out per buffer.
    pub(crate) fn async_secagg_bytes(aggregation_goal: usize, model_bytes: u64) -> u64 {
        aggregation_goal as u64 * DEFAULT_PER_CLIENT_TSA_BYTES + model_bytes
    }

    /// Transfer time for `bytes` split across `messages` boundary crossings.
    pub(crate) fn transfer_time_s(&self, bytes: u64, messages: usize) -> f64 {
        bytes as f64 / self.bytes_per_second + messages as f64 * self.per_message_overhead_s
    }

    /// Data-transfer time of naive TEE aggregation for a buffer of `k`
    /// clients and a model of `model_bytes` bytes.
    pub fn naive_time_s(&self, k: usize, model_bytes: u64) -> f64 {
        self.transfer_time_s(Self::naive_bytes(k, model_bytes), k)
    }

    /// Data-transfer time of AsyncSecAgg for the same buffer.
    pub fn async_secagg_time_s(&self, k: usize, model_bytes: u64) -> f64 {
        self.transfer_time_s(Self::async_secagg_bytes(k, model_bytes), k + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL_20MB: u64 = 20_000_000;

    #[test]
    fn naive_bytes_scale_linearly_with_k() {
        assert_eq!(
            TeeBoundaryCostModel::naive_bytes(10, MODEL_20MB) * 10,
            TeeBoundaryCostModel::naive_bytes(100, MODEL_20MB)
        );
    }

    #[test]
    fn async_bytes_are_nearly_constant_in_k() {
        let b10 = TeeBoundaryCostModel::async_secagg_bytes(10, MODEL_20MB);
        let b1000 = TeeBoundaryCostModel::async_secagg_bytes(1000, MODEL_20MB);
        // Going from K=10 to K=1000 should cost far less than 2x, because the
        // model-sized unmask dominates.
        assert!((b1000 as f64) < 1.1 * b10 as f64);
    }

    #[test]
    fn calibration_matches_paper_at_k_100() {
        // Paper: naive TSA, K = 100, 20 MB model → ~650 ms.
        let model = TeeBoundaryCostModel::default();
        let t = model.naive_time_s(100, MODEL_20MB);
        assert!((0.55..0.75).contains(&t), "naive time {t}");
    }

    #[test]
    fn naive_k_1000_is_seconds_async_is_milliseconds() {
        // Paper: at K = 1000 the naive design needs ~6500 ms while
        // AsyncSecAgg stays roughly constant (~the single-model transfer).
        let model = TeeBoundaryCostModel::default();
        let naive = model.naive_time_s(1000, MODEL_20MB);
        let ours = model.async_secagg_time_s(1000, MODEL_20MB);
        assert!(naive > 5.0, "naive {naive}");
        assert!(ours < 0.2, "async {ours}");
        assert!(naive / ours > 50.0);
    }

    #[test]
    fn async_advantage_grows_with_k() {
        let model = TeeBoundaryCostModel::default();
        let ratio_at =
            |k: usize| model.naive_time_s(k, MODEL_20MB) / model.async_secagg_time_s(k, MODEL_20MB);
        assert!(ratio_at(10) < ratio_at(100));
        assert!(ratio_at(100) < ratio_at(1000));
    }
}
