//! A fast surrogate federated objective for large-scale simulations.
//!
//! Training the real LSTM for every client update is affordable only for
//! small experiments; the concurrency sweeps in Figures 3 and 9 simulate
//! hundreds of thousands of client updates.  For those, this module provides
//! a heterogeneous quadratic objective whose optimization dynamics exhibit
//! the phenomena the paper measures:
//!
//! * each client `i` has its own optimum `w*_i = w* + heterogeneity · ξ_i +
//!   volume_bias · p_i · u`, where `p_i` is the client's data-volume
//!   percentile and `u` a fixed direction — so heavy-data (slow) clients pull
//!   the model somewhere specific, and excluding them (over-selection)
//!   produces a measurably biased model;
//! * local training is mini-batch SGD with gradient noise, so larger
//!   aggregation goals behave like larger batches (the diminishing-returns
//!   effect of Figure 3);
//! * stale deltas are computed against old server parameters, so staleness
//!   damping matters (Figure 10).

use crate::client::{ClientTrainer, LocalTrainResult};
use papaya_data::population::Population;
use papaya_nn::params::ParamVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the surrogate objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SurrogateConfig {
    /// Model dimensionality.
    pub dim: usize,
    /// Standard deviation of per-client optimum noise.
    pub heterogeneity: f32,
    /// Magnitude of the systematic shift applied to heavy-data clients'
    /// optima (drives the over-selection bias experiments).
    pub volume_bias: f32,
    /// Client-side SGD learning rate.
    pub local_learning_rate: f32,
    /// Mini-batch size used to derive the number of local steps.
    pub batch_size: usize,
    /// Cap on the number of local SGD steps per participation.
    pub max_local_steps: usize,
    /// Standard deviation of per-step gradient noise.
    pub gradient_noise: f32,
    /// Distance of the initial model from the population optimum.
    pub init_distance: f32,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            dim: 32,
            heterogeneity: 0.5,
            volume_bias: 2.0,
            local_learning_rate: 0.1,
            batch_size: 32,
            max_local_steps: 20,
            gradient_noise: 0.3,
            init_distance: 10.0,
        }
    }
}

/// The surrogate federated objective (implements [`ClientTrainer`]).
#[derive(Clone, Debug)]
pub struct SurrogateObjective {
    config: SurrogateConfig,
    client_optima: Vec<Vec<f32>>,
    num_examples: Vec<usize>,
    initial: ParamVec,
}

fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    papaya_data::stats::standard_normal_pair(u1, u2).0 as f32
}

impl SurrogateObjective {
    /// Builds the objective for a device population.
    pub fn new(population: &Population, config: SurrogateConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = config.dim;
        // Population-level optimum and the bias direction for heavy clients.
        let global_optimum: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let mut bias_direction: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let norm = bias_direction
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt()
            .max(1e-6);
        for b in bias_direction.iter_mut() {
            *b /= norm;
        }
        let max_examples = population
            .iter()
            .map(|d| d.num_examples)
            .max()
            .unwrap_or(1)
            .max(1) as f32;

        let mut client_optima = Vec::with_capacity(population.len());
        let mut num_examples = Vec::with_capacity(population.len());
        for device in population.iter() {
            let volume_percentile = device.num_examples as f32 / max_examples;
            let optimum: Vec<f32> = (0..dim)
                .map(|j| {
                    global_optimum[j]
                        + config.heterogeneity * standard_normal(&mut rng)
                        + config.volume_bias * volume_percentile * bias_direction[j]
                })
                .collect();
            client_optima.push(optimum);
            num_examples.push(device.num_examples);
        }

        // Initial model: global optimum displaced by init_distance along a
        // random direction, so there is something to learn.
        let init_dir: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let norm = init_dir.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        let initial: Vec<f32> = (0..dim)
            .map(|j| global_optimum[j] + config.init_distance * init_dir[j] / norm)
            .collect();

        SurrogateObjective {
            config,
            client_optima,
            num_examples,
            initial: ParamVec::from_vec(initial),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.client_optima.len()
    }

    /// The configuration used to build the objective.
    pub fn config(&self) -> &SurrogateConfig {
        &self.config
    }

    /// The population optimum: the unweighted mean of all client optima.
    /// Evaluating at this point gives the (approximate) lowest achievable
    /// population loss, useful for setting relative loss targets.
    pub fn population_optimum(&self) -> ParamVec {
        let mut mean = vec![0.0f32; self.config.dim];
        for optimum in &self.client_optima {
            for (m, o) in mean.iter_mut().zip(optimum.iter()) {
                *m += o;
            }
        }
        for m in mean.iter_mut() {
            *m /= self.client_optima.len().max(1) as f32;
        }
        ParamVec::from_vec(mean)
    }

    /// Loss of `params` for a single client.
    pub fn client_loss(&self, params: &ParamVec, client_id: usize) -> f64 {
        let optimum = &self.client_optima[client_id];
        params
            .as_slice()
            .iter()
            .zip(optimum.iter())
            .map(|(w, o)| 0.5 * ((w - o) as f64).powi(2))
            .sum::<f64>()
            / self.config.dim as f64
    }
}

/// The surrogate objective with O(bytes) per-client state: client optima
/// are *derived on demand* from `(seed, client_id)` instead of being
/// materialized up front.
///
/// [`SurrogateObjective`] stores `dim` floats per client (512 MB for a
/// million clients at `dim = 128`), which caps how large a population fits
/// in memory.  This variant stores only the population-level state (global
/// optimum, bias direction, initial model — all O(dim)) plus a packed
/// 4-byte example count per client, and re-derives a client's optimum from
/// a per-client seeded RNG each time that client trains or is evaluated.
/// Same statistical family as [`SurrogateObjective`] (per-client optimum =
/// global + heterogeneity noise + volume-biased shift), but the two are
/// *not* draw-for-draw identical: this one seeds per client rather than
/// consuming one sequential RNG stream, precisely so that idle clients
/// cost nothing.
///
/// This is the trainer behind the `fedbuff-1m` scenario and the
/// benchmark's `million-idle` workload (`docs/SCALING.md`): a million idle clients cost 4 MB here instead of
/// half a gigabyte.
#[derive(Clone, Debug)]
pub struct ProceduralSurrogate {
    config: SurrogateConfig,
    global_optimum: Vec<f32>,
    bias_direction: Vec<f32>,
    initial: ParamVec,
    /// The only per-client state: packed example counts (4 B/client).
    num_examples: Vec<u32>,
    max_examples: f32,
    seed: u64,
}

impl ProceduralSurrogate {
    /// Builds the objective for a device population.
    pub fn new(population: &Population, config: SurrogateConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = config.dim;
        let global_optimum: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let mut bias_direction: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let norm = bias_direction
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt()
            .max(1e-6);
        for b in bias_direction.iter_mut() {
            *b /= norm;
        }
        let num_examples: Vec<u32> = population.iter().map(|d| d.num_examples as u32).collect();
        let max_examples = num_examples.iter().copied().max().unwrap_or(1).max(1) as f32;
        let init_dir: Vec<f32> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let norm = init_dir.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        let initial: Vec<f32> = (0..dim)
            .map(|j| global_optimum[j] + config.init_distance * init_dir[j] / norm)
            .collect();
        ProceduralSurrogate {
            config,
            global_optimum,
            bias_direction,
            initial: ParamVec::from_vec(initial),
            num_examples,
            max_examples,
            seed,
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.num_examples.len()
    }

    /// Derives client `client_id`'s optimum from its seeded RNG (no stored
    /// per-client state).  Deterministic: the same client always gets the
    /// same optimum.
    fn client_optimum(&self, client_id: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (client_id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let volume_percentile = self.num_examples[client_id] as f32 / self.max_examples;
        (0..self.config.dim)
            .map(|j| {
                self.global_optimum[j]
                    + self.config.heterogeneity * standard_normal(&mut rng)
                    + self.config.volume_bias * volume_percentile * self.bias_direction[j]
            })
            .collect()
    }

    /// Loss of `params` for a single client.
    pub fn client_loss(&self, params: &ParamVec, client_id: usize) -> f64 {
        let optimum = self.client_optimum(client_id);
        params
            .as_slice()
            .iter()
            .zip(optimum.iter())
            .map(|(w, o)| 0.5 * ((w - o) as f64).powi(2))
            .sum::<f64>()
            / self.config.dim as f64
    }
}

impl ClientTrainer for ProceduralSurrogate {
    fn parameter_count(&self) -> usize {
        self.config.dim
    }

    fn initial_parameters(&self) -> ParamVec {
        self.initial.clone()
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        assert!(client_id < self.num_clients(), "unknown client {client_id}");
        assert_eq!(global.len(), self.config.dim, "parameter length mismatch");
        let mut rng = StdRng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9e37_79b9));
        let optimum = self.client_optimum(client_id);
        let examples = self.num_examples[client_id] as usize;
        let steps =
            (examples.div_ceil(self.config.batch_size)).clamp(1, self.config.max_local_steps);
        let noise_scale = self.config.gradient_noise
            / (self.config.batch_size.min(examples).max(1) as f32).sqrt();

        let mut w: Vec<f32> = global.as_slice().to_vec();
        for _ in 0..steps {
            for j in 0..self.config.dim {
                let grad = (w[j] - optimum[j]) + noise_scale * standard_normal(&mut rng);
                w[j] -= self.config.local_learning_rate * grad;
            }
        }
        let trained = ParamVec::from_vec(w);
        let train_loss = self.client_loss(&trained, client_id) as f32;
        LocalTrainResult {
            delta: trained.sub(global),
            num_examples: examples,
            train_loss,
        }
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        assert!(!client_ids.is_empty(), "evaluate needs at least one client");
        client_ids
            .iter()
            .map(|&id| self.client_loss(params, id))
            .sum::<f64>()
            / client_ids.len() as f64
    }
}

impl ClientTrainer for SurrogateObjective {
    fn parameter_count(&self) -> usize {
        self.config.dim
    }

    fn initial_parameters(&self) -> ParamVec {
        self.initial.clone()
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        assert!(client_id < self.num_clients(), "unknown client {client_id}");
        assert_eq!(global.len(), self.config.dim, "parameter length mismatch");
        let mut rng = StdRng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9e37_79b9));
        let optimum = &self.client_optima[client_id];
        let examples = self.num_examples[client_id];
        let steps =
            (examples.div_ceil(self.config.batch_size)).clamp(1, self.config.max_local_steps);
        // Gradient noise shrinks with the batch size actually used.
        let noise_scale = self.config.gradient_noise
            / (self.config.batch_size.min(examples).max(1) as f32).sqrt();

        let mut w: Vec<f32> = global.as_slice().to_vec();
        for _ in 0..steps {
            for j in 0..self.config.dim {
                let grad = (w[j] - optimum[j]) + noise_scale * standard_normal(&mut rng);
                w[j] -= self.config.local_learning_rate * grad;
            }
        }
        let trained = ParamVec::from_vec(w);
        let train_loss = self.client_loss(&trained, client_id) as f32;
        LocalTrainResult {
            delta: trained.sub(global),
            num_examples: examples,
            train_loss,
        }
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        assert!(!client_ids.is_empty(), "evaluate needs at least one client");
        client_ids
            .iter()
            .map(|&id| self.client_loss(params, id))
            .sum::<f64>()
            / client_ids.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;
    use crate::client::ClientUpdate;
    use crate::fedbuff::FedBuffAggregator;
    use crate::model::ServerModel;
    use crate::server_opt::FedAvg;
    use crate::staleness::StalenessWeighting;
    use papaya_data::population::{Population, PopulationConfig};

    fn objective(n: usize) -> SurrogateObjective {
        let pop = Population::generate(&PopulationConfig::default().with_size(n), 5);
        SurrogateObjective::new(&pop, SurrogateConfig::default(), 5)
    }

    #[test]
    fn procedural_surrogate_is_deterministic_and_trains() {
        let pop = Population::generate(&PopulationConfig::default().with_size(300), 5);
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 5);
        let global = obj.initial_parameters();
        // Deterministic per (client, seed) — optima are re-derived, never stored.
        assert_eq!(obj.train(7, &global, 42), obj.train(7, &global, 42));
        assert_ne!(
            obj.train(7, &global, 42).delta,
            obj.train(8, &global, 42).delta
        );
        // A local step moves towards the client's optimum.
        let before = obj.client_loss(&global, 7);
        let result = obj.train(7, &global, 1);
        let after = obj.client_loss(&global.add(&result.delta), 7);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn procedural_surrogate_per_client_state_is_bytes_not_dim() {
        // The scale claim: per-client cost is one packed u32, independent of
        // the model dimension (SurrogateObjective stores dim floats/client).
        let pop = Population::generate(&PopulationConfig::default().with_size(1000), 5);
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 5);
        assert_eq!(obj.num_clients(), 1000);
        assert_eq!(
            std::mem::size_of_val(&obj.num_examples[..]) / obj.num_clients(),
            4
        );
    }

    #[test]
    fn initial_loss_is_high_training_reduces_it() {
        let obj = objective(200);
        let all: Vec<usize> = (0..obj.num_clients()).collect();
        let mut model = ServerModel::new(obj.initial_parameters());
        let initial_loss = obj.evaluate(model.params(), &all);

        // Run 30 FedAvg rounds of 20 clients each.
        let mut opt = FedAvg;
        let mut agg = FedBuffAggregator::new(20, StalenessWeighting::Constant, None);
        for round in 0..30u64 {
            for c in 0..20usize {
                let client = (round as usize * 20 + c) % obj.num_clients();
                let result = obj.train(client, model.params(), round * 1000 + c as u64);
                agg.accumulate(
                    ClientUpdate::from_result(client, model.version(), result),
                    model.version(),
                    0.0,
                );
            }
            let delta = agg.take(0.0).expect("goal reached");
            model.apply_update(&mut opt, &delta);
        }
        let final_loss = obj.evaluate(model.params(), &all);
        assert!(
            final_loss < initial_loss * 0.2,
            "loss did not drop enough: {initial_loss} -> {final_loss}"
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let obj = objective(50);
        let global = obj.initial_parameters();
        let a = obj.train(3, &global, 42);
        let b = obj.train(3, &global, 42);
        assert_eq!(a, b);
        let c = obj.train(3, &global, 43);
        assert_ne!(a.delta, c.delta);
    }

    #[test]
    fn delta_moves_towards_client_optimum() {
        let obj = objective(50);
        let global = obj.initial_parameters();
        let before = obj.client_loss(&global, 7);
        let result = obj.train(7, &global, 1);
        let after = obj.client_loss(&global.add(&result.delta), 7);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn heavy_clients_have_systematically_different_optima() {
        let pop = Population::generate(&PopulationConfig::default().with_size(2000), 9);
        let obj = SurrogateObjective::new(&pop, SurrogateConfig::default(), 9);
        // A model fit only to the light half of clients is worse for the
        // heaviest 1% than a model fit to everyone (bias direction matters).
        let heavy = pop.ids_above_example_percentile(99.0);
        let light: Vec<usize> = pop
            .iter()
            .filter(|d| !heavy.contains(&d.id))
            .map(|d| d.id)
            .collect();
        // Means of optima as quick stand-ins for the models fit to each group.
        let mean_of = |ids: &[usize]| {
            let mut acc = vec![0.0f32; obj.config().dim];
            for &id in ids {
                for (a, o) in acc.iter_mut().zip(obj.client_optima[id].iter()) {
                    *a += o;
                }
            }
            for a in acc.iter_mut() {
                *a /= ids.len() as f32;
            }
            ParamVec::from_vec(acc)
        };
        let all_ids: Vec<usize> = (0..obj.num_clients()).collect();
        let fit_light = mean_of(&light);
        let fit_all = mean_of(&all_ids);
        assert!(obj.evaluate(&fit_light, &heavy) > obj.evaluate(&fit_all, &heavy));
    }

    #[test]
    fn evaluate_on_subsets_differs_from_population() {
        let pop = Population::generate(&PopulationConfig::default().with_size(500), 2);
        let obj = SurrogateObjective::new(&pop, SurrogateConfig::default(), 2);
        let params = obj.initial_parameters();
        let all: Vec<usize> = (0..obj.num_clients()).collect();
        let heavy = pop.ids_above_example_percentile(75.0);
        // Both are positive losses; they should not be identical.
        let a = obj.evaluate(&params, &all);
        let b = obj.evaluate(&params, &heavy);
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() > 1e-9);
    }

    #[test]
    fn number_of_local_steps_is_capped() {
        // A client with thousands of examples must not take unbounded time.
        let pop = Population::generate(
            &PopulationConfig {
                min_examples: 5000,
                max_examples: 5000,
                ..PopulationConfig::default().with_size(3)
            },
            1,
        );
        let obj = SurrogateObjective::new(&pop, SurrogateConfig::default(), 1);
        let result = obj.train(0, &obj.initial_parameters(), 0);
        assert_eq!(result.num_examples, 5000);
        // The delta norm stays bounded because steps are capped.
        assert!(result.delta.norm() < 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        let obj = objective(5);
        let _ = obj.train(99, &obj.initial_parameters(), 0);
    }
}
