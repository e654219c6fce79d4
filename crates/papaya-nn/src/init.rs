//! Weight initialization helpers.  Each returns a row-major `rows × cols`
//! matrix as a flat vector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialization: samples from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, limit, seed)
}

/// Uniform initialization in `[-limit, limit)`.
pub fn uniform(rows: usize, cols: usize, limit: f32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|_| rng.gen_range(-limit..limit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_bounds() {
        let m = xavier_uniform(10, 20, 1);
        let limit = (6.0 / 30.0f32).sqrt();
        assert_eq!(m.len(), 200);
        assert!(m.iter().all(|&x| x > -limit && x < limit));
    }

    #[test]
    fn deterministic_for_same_seed() {
        assert_eq!(xavier_uniform(4, 4, 7), xavier_uniform(4, 4, 7));
        assert_ne!(xavier_uniform(4, 4, 7), xavier_uniform(4, 4, 8));
    }

    #[test]
    fn uniform_respects_limit() {
        let m = uniform(5, 5, 0.1, 3);
        assert_eq!(m.len(), 25);
        assert!(m.iter().all(|&x| x.abs() <= 0.1));
    }
}
