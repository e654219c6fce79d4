//! Synthetic device populations with realistic heterogeneity.
//!
//! The model follows the observations in Sections 2 and 7.4 of the paper:
//!
//! * per-client training-example counts are heavy tailed (log-normal);
//! * device compute speed varies by roughly an order of magnitude
//!   (log-normal);
//! * execution time grows with the number of examples and shrinks with
//!   device speed, so slow clients tend to be the ones with many examples
//!   (the correlation that makes over-selection biased);
//! * a configurable fraction of clients drop out mid-training (the paper
//!   reports up to 10 %).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a device in a population.
pub(crate) type DeviceId = usize;

/// Configuration for synthesizing a device population.
#[derive(Clone, Debug)]
pub struct PopulationConfig {
    /// Number of devices.
    pub size: usize,
    /// Mean of `ln(example_count)`.
    pub examples_log_mean: f64,
    /// Standard deviation of `ln(example_count)`.
    pub examples_log_std: f64,
    /// Minimum examples per client.
    pub min_examples: usize,
    /// Maximum examples per client (production systems cap local data use).
    pub max_examples: usize,
    /// Standard deviation of `ln(speed_factor)`; speed has median 1.0.
    pub speed_log_std: f64,
    /// Fixed per-participation overhead in seconds (download, setup, upload).
    pub setup_time_s: f64,
    /// Seconds of compute per training example on a median-speed device.
    pub per_example_time_s: f64,
    /// Probability that a client drops out during training.
    pub dropout_prob: f64,
    /// Client-side training timeout in seconds (paper: 4 minutes).
    pub timeout_s: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            size: 10_000,
            examples_log_mean: 3.7, // median ~40 examples
            examples_log_std: 1.1,
            min_examples: 1,
            max_examples: 5_000,
            speed_log_std: 0.7,
            setup_time_s: 2.0,
            per_example_time_s: 0.15,
            dropout_prob: 0.08,
            timeout_s: 240.0,
        }
    }
}

impl PopulationConfig {
    /// Sets the population size.
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Sets the dropout probability.
    pub fn with_dropout(mut self, dropout_prob: f64) -> Self {
        self.dropout_prob = dropout_prob;
        self
    }
}

/// A single synthetic device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Device identifier (index in the population).
    pub id: DeviceId,
    /// Number of local training examples.
    pub num_examples: usize,
    /// Relative compute speed (median device = 1.0; larger is faster).
    pub speed_factor: f64,
    /// End-to-end execution time in seconds for one participation
    /// (download + local training + upload), before any timeout is applied.
    pub execution_time_s: f64,
    /// Probability this device drops out mid-participation.
    pub dropout_prob: f64,
}

impl DeviceProfile {
    /// Execution time after applying the client timeout: devices that would
    /// exceed the timeout are cut off at the timeout (they report a failure).
    pub fn clamped_execution_time(&self, timeout_s: f64) -> f64 {
        self.execution_time_s.min(timeout_s)
    }

    /// Whether this device would exceed the given timeout.
    pub fn exceeds_timeout(&self, timeout_s: f64) -> bool {
        self.execution_time_s > timeout_s
    }
}

/// A synthetic population of devices.
///
/// # Packed idle state
///
/// At million-client scale the population dominates resident memory, so a
/// device is *not* stored as a [`DeviceProfile`] struct.  Only the two
/// quantities that cannot be re-derived from the config survive per device
/// — the speed factor (`f64`, its RNG draw is sequential) and the example
/// count (`u32`) — [`Population::BYTES_PER_DEVICE`] (12) bytes per idle
/// client.  Everything else is a pure function of those and the
/// [`PopulationConfig`]: [`Population::device`] materializes the full
/// profile on demand, re-deriving `execution_time_s` with the exact
/// floating-point expression the generator used, so the packed
/// representation is bit-identical to the historical struct-of-structs one
/// (see `docs/SCALING.md`).
#[derive(Clone, Debug)]
pub struct Population {
    /// Per-device relative compute speed (median 1.0).
    speed: Vec<f64>,
    /// Per-device local example count.
    examples: Vec<u32>,
    config: PopulationConfig,
}

/// Samples from a standard normal via the shared Box–Muller transform.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    crate::stats::standard_normal_pair(u1, u2).0
}

impl Population {
    /// Stored bytes per idle device: the `f64` speed factor plus the `u32`
    /// example count.  Everything else in a [`DeviceProfile`] is re-derived
    /// on demand from the [`PopulationConfig`].  `docs/SCALING.md` budgets
    /// against this and a test pins it.
    pub const BYTES_PER_DEVICE: usize = std::mem::size_of::<f64>() + std::mem::size_of::<u32>();

    /// Generates a population from the given configuration and seed.
    pub fn generate(config: &PopulationConfig, seed: u64) -> Self {
        assert!(
            config.max_examples <= u32::MAX as usize,
            "max_examples {} exceeds the packed u32 example range",
            config.max_examples
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut speed = Vec::with_capacity(config.size);
        let mut examples = Vec::with_capacity(config.size);
        for _ in 0..config.size {
            let examples_raw = (config.examples_log_mean
                + config.examples_log_std * standard_normal(&mut rng))
            .exp();
            let num_examples =
                (examples_raw.round() as usize).clamp(config.min_examples, config.max_examples);
            let speed_factor = (config.speed_log_std * standard_normal(&mut rng)).exp();
            speed.push(speed_factor);
            examples.push(num_examples as u32);
        }
        Population {
            speed,
            examples,
            config: config.clone(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns true when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Materializes the profile of device `id` from the packed state.
    ///
    /// The execution time is recomputed with the exact expression the
    /// generator historically stored, so the returned profile is
    /// bit-identical to one built at generation time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> DeviceProfile {
        let num_examples = self.examples[id] as usize;
        let speed_factor = self.speed[id];
        let compute_time =
            self.config.setup_time_s + self.config.per_example_time_s * num_examples as f64;
        let execution_time_s = compute_time / speed_factor;
        DeviceProfile {
            id,
            num_examples,
            speed_factor,
            execution_time_s,
            dropout_prob: self.config.dropout_prob,
        }
    }

    /// Iterates over all devices, materializing each profile on demand.
    pub fn iter(&self) -> impl Iterator<Item = DeviceProfile> + '_ {
        (0..self.len()).map(|id| self.device(id))
    }

    /// All execution times, in seconds (for Figure 2 style histograms).
    pub fn execution_times(&self) -> Vec<f64> {
        self.iter().map(|d| d.execution_time_s).collect()
    }

    /// All example counts.
    pub fn example_counts(&self) -> Vec<usize> {
        self.examples.iter().map(|&c| c as usize).collect()
    }

    /// Device ids whose example count falls at or above the given percentile
    /// of the population (used by Table 1's 75 %/99 % groups).
    pub fn ids_above_example_percentile(&self, percentile: f64) -> Vec<DeviceId> {
        let threshold = crate::stats::percentile(
            &self.examples.iter().map(|&c| c as f64).collect::<Vec<_>>(),
            percentile,
        );
        self.examples
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as f64 >= threshold)
            .map(|(id, _)| id)
            .collect()
    }

    /// Pearson correlation between execution time and example count.
    pub fn time_examples_correlation(&self) -> f64 {
        let times: Vec<f64> = self.iter().map(|d| d.execution_time_s.ln()).collect();
        let counts: Vec<f64> = self.examples.iter().map(|&c| (c as f64).ln()).collect();
        crate::stats::pearson_correlation(&times, &counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(size: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(size), 7)
    }

    #[test]
    fn generates_requested_size() {
        assert_eq!(pop(500).len(), 500);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = PopulationConfig::default().with_size(100);
        let a = Population::generate(&config, 1);
        let b = Population::generate(&config, 1);
        assert_eq!(a.device(42), b.device(42));
        let c = Population::generate(&config, 2);
        assert_ne!(a.device(42), c.device(42));
    }

    #[test]
    fn execution_times_span_two_orders_of_magnitude() {
        // Figure 2: the execution-time distribution spans >2 orders of
        // magnitude across the population.
        let p = pop(20_000);
        let times = p.execution_times();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max / min > 100.0,
            "expected >100x spread, got {:.1}x",
            max / min
        );
    }

    #[test]
    fn execution_time_correlates_with_examples() {
        // Figure 11: slow clients tend to have many examples.
        let p = pop(20_000);
        let corr = p.time_examples_correlation();
        assert!(corr > 0.4, "expected positive correlation, got {corr}");
    }

    #[test]
    fn example_counts_are_heavy_tailed() {
        let p = pop(20_000);
        let counts: Vec<f64> = p.example_counts().iter().map(|&c| c as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let median = crate::stats::percentile(&counts, 50.0);
        assert!(
            mean > 1.3 * median,
            "heavy tail expected: mean {mean}, median {median}"
        );
    }

    #[test]
    fn bounds_respected() {
        let config = PopulationConfig {
            min_examples: 5,
            max_examples: 50,
            ..PopulationConfig::default().with_size(2000)
        };
        let p = Population::generate(&config, 3);
        assert!(p
            .iter()
            .all(|d| d.num_examples >= 5 && d.num_examples <= 50));
    }

    #[test]
    fn timeout_clamping() {
        let d = DeviceProfile {
            id: 0,
            num_examples: 100,
            speed_factor: 0.01,
            execution_time_s: 900.0,
            dropout_prob: 0.0,
        };
        assert!(d.exceeds_timeout(240.0));
        assert_eq!(d.clamped_execution_time(240.0), 240.0);
        assert!(!d.exceeds_timeout(1000.0));
    }

    #[test]
    fn idle_state_stays_within_the_documented_byte_budget() {
        // The packed per-device state is exactly what the two parallel
        // vectors store; a materialized profile is strictly larger.  The
        // docs/SCALING.md budget table assumes 12 bytes per idle device —
        // this assertion fails before the docs can go stale.
        assert_eq!(
            Population::BYTES_PER_DEVICE,
            std::mem::size_of::<f64>() + std::mem::size_of::<u32>()
        );
        assert_eq!(Population::BYTES_PER_DEVICE, 12);
        assert!(Population::BYTES_PER_DEVICE < std::mem::size_of::<DeviceProfile>());
    }

    #[test]
    fn materialized_profiles_match_across_calls_and_iteration() {
        let p = pop(200);
        for (i, d) in p.iter().enumerate() {
            assert_eq!(d.id, i);
            assert_eq!(d, p.device(i));
        }
    }

    #[test]
    fn percentile_group_is_smaller_than_population() {
        let p = pop(5_000);
        let top1 = p.ids_above_example_percentile(99.0);
        let top25 = p.ids_above_example_percentile(75.0);
        assert!(!top1.is_empty());
        assert!(top1.len() < top25.len());
        assert!(top25.len() < p.len() / 2);
    }
}
