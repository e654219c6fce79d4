//! One-time-pad mask expansion.
//!
//! A 16-byte random seed, shared between a client and the TSA over the
//! Diffie–Hellman channel, is expanded by ChaCha20 into a vector of group
//! elements "as large as the model at a constant cost" (Section 5).  Both
//! sides run this exact function, so the client's mask and the TSA's
//! regenerated mask cancel.

use crate::group::{GroupParams, GroupVec};
use papaya_crypto::chacha20::ChaCha20Rng;

/// The seed size used by the protocol (the paper's "usually 16 bytes").
pub(crate) const SEED_LEN: usize = 16;

/// A mask seed.
pub(crate) type MaskSeed = [u8; SEED_LEN];

/// Deterministically expands `seed` into a mask of `len` group elements.
pub fn expand_mask(seed: &MaskSeed, params: GroupParams, len: usize) -> GroupVec {
    let mut values = Vec::new();
    expand_mask_into(seed, params, len, &mut values);
    GroupVec::from_reduced(params, values)
}

/// Expands `seed` into `out`, reusing the buffer's capacity.  This is the one
/// expansion loop ([`expand_mask`] wraps it); hot paths that expand many
/// masks (the batched TSA release, the session-mode client masks) call it
/// with a long-lived scratch buffer to avoid per-mask allocation.
pub fn expand_mask_into(seed: &MaskSeed, params: GroupParams, len: usize, out: &mut Vec<u64>) {
    let mut rng = ChaCha20Rng::from_seed16(*seed);
    out.clear();
    out.resize(len, 0);
    rng.fill_below(params.modulus(), out);
}

/// Samples a fresh random seed from the provided RNG.
pub(crate) fn random_seed(rng: &mut ChaCha20Rng) -> MaskSeed {
    let mut seed = [0u8; SEED_LEN];
    rng.fill_bytes(&mut seed);
    seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        let params = GroupParams::z2_32();
        let seed = [9u8; SEED_LEN];
        assert_eq!(
            expand_mask(&seed, params, 100),
            expand_mask(&seed, params, 100)
        );
    }

    #[test]
    fn different_seeds_give_different_masks() {
        let params = GroupParams::z2_32();
        let a = expand_mask(&[1u8; SEED_LEN], params, 64);
        let b = expand_mask(&[2u8; SEED_LEN], params, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn mask_elements_are_in_group() {
        let params = GroupParams::new(1000);
        let mask = expand_mask(&[3u8; SEED_LEN], params, 500);
        assert!(mask.values().iter().all(|&v| v < 1000));
    }

    #[test]
    fn mask_looks_uniform() {
        // Crude uniformity check: mean of Z_2^32 mask elements should be near
        // the center of the range.
        let params = GroupParams::z2_32();
        let mask = expand_mask(&[4u8; SEED_LEN], params, 20_000);
        let mean = mask.values().iter().map(|&v| v as f64).sum::<f64>() / mask.len() as f64;
        let center = (1u64 << 31) as f64;
        assert!((mean - center).abs() < 0.02 * center, "mean {mean}");
    }

    #[test]
    fn mask_cancels_itself() {
        let params = GroupParams::z2_32();
        let seed = [7u8; SEED_LEN];
        let mask = expand_mask(&seed, params, 32);
        let cancelled = mask.sub(&expand_mask(&seed, params, 32));
        assert!(cancelled.values().iter().all(|&v| v == 0));
    }

    #[test]
    fn expand_mask_into_matches_expand_mask() {
        let params = GroupParams::new(1_000_003);
        let seed = [11u8; SEED_LEN];
        let reference = expand_mask(&seed, params, 777);
        let mut scratch = vec![42u64; 9]; // stale contents must be cleared
        expand_mask_into(&seed, params, 777, &mut scratch);
        assert_eq!(scratch.as_slice(), reference.values());
    }

    #[test]
    fn random_seed_uses_rng_stream() {
        let mut rng1 = ChaCha20Rng::from_seed([5u8; 32]);
        let mut rng2 = ChaCha20Rng::from_seed([5u8; 32]);
        // Same RNG state yields the same seed; consecutive draws differ.
        assert_eq!(random_seed(&mut rng1), random_seed(&mut rng2));
        let next = random_seed(&mut rng1);
        assert_ne!(next, random_seed(&mut rng1));
    }
}
