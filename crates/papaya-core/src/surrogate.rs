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
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Buffers for drawing standard normals a batch at a time through
/// `papaya_data::stats::standard_normals_f32`, which returns what one
/// Box–Muller draw per normal returned, bit for bit.
struct Normals {
    u1: Vec<f64>,
    u2: Vec<f64>,
    out: Vec<f32>,
}

impl Normals {
    fn new(n: usize) -> Self {
        Normals {
            u1: vec![0.0; n],
            u2: vec![0.0; n],
            out: vec![0.0; n],
        }
    }

    /// The next batch of normals of `rng`, its uniforms drawn in the order
    /// the scalar draw took them: `u1` then `u2` for each normal.
    fn draw(&mut self, rng: &mut StdRng) -> &[f32] {
        for (u1, u2) in self.u1.iter_mut().zip(&mut self.u2) {
            *u1 = rng.gen_range(f64::EPSILON..1.0);
            *u2 = rng.gen_range(0.0..1.0);
        }
        papaya_data::stats::standard_normals_f32(&self.u1, &self.u2, &mut self.out);
        &self.out
    }
}

/// `n` normals of `rng`, drawn as [`Normals::draw`] draws them.
fn standard_normals(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut normals = Normals::new(n);
    normals.draw(rng);
    normals.out
}

/// Loss of `params` for the client whose optimum is `optimum`: half the
/// squared distance, summed in f64 in coordinate order, over the dimension.
fn loss_at(params: &[f32], optimum: &[f32]) -> f64 {
    params
        .iter()
        .zip(optimum)
        .map(|(w, o)| 0.5 * ((w - o) as f64).powi(2))
        .sum::<f64>()
        / params.len() as f64
}

/// The checks every entry point that takes a client and a parameter vector
/// makes, with one set of messages.
fn check_arguments(num_clients: usize, dim: usize, client_id: usize, params: &ParamVec) {
    assert!(client_id < num_clients, "unknown client {client_id}");
    assert_eq!(params.len(), dim, "parameter length mismatch");
}

/// The Euclidean norm of `v`, floored so that dividing by it is safe.
fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6)
}

/// The surrogate federated objective (implements [`ClientTrainer`]), with
/// O(bytes) per-client state: client optima are *derived on demand* from
/// `(seed, client_id)` instead of being materialized up front.
///
/// It stores only the population-level state (global optimum, bias
/// direction, initial model — all O(dim)) plus a packed 4-byte example
/// count per client, and re-derives a client's optimum from a per-client
/// seeded RNG each time that client trains, so idle clients cost nothing:
/// a million of them cost 4 MB at any `dim` (`docs/SCALING.md`).
///
/// `evaluate` keeps the optima of every evaluation set it has been given,
/// keyed by the exact list of ids, so a task that evaluates the same
/// clients all run derives them once.  That costs `dim` floats per
/// evaluated client (100 KB for `million-idle`'s 200 at `dim = 128`),
/// independent of the population.
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
    eval_optima: EvalOptima,
}

/// The client optima of each evaluation set `evaluate` has seen, one per id
/// in list order.  One entry per distinct list: tasks sharing a trainer each
/// keep their own set, and an entry never changes once made.
#[derive(Default)]
struct EvalOptima(Mutex<BTreeMap<Vec<usize>, Vec<Vec<f32>>>>);

impl EvalOptima {
    /// Locks the sets.  An entry is inserted whole after its optima are
    /// derived, so a panic elsewhere cannot leave one half-made and a
    /// poisoned lock is safe to use.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<Vec<usize>, Vec<Vec<f32>>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for EvalOptima {
    fn clone(&self) -> Self {
        EvalOptima(Mutex::new(self.lock().clone()))
    }
}

impl fmt::Debug for EvalOptima {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalOptima")
            .field("sets", &self.lock().len())
            .finish()
    }
}

impl ProceduralSurrogate {
    /// Builds the objective for a device population.
    pub fn new(population: &Population, config: SurrogateConfig, seed: u64) -> Self {
        // The population optimum, the unit direction heavy clients' optima
        // shift along, and the direction the initial model is displaced
        // along by `init_distance`, so that there is something to learn.
        let mut rng = StdRng::seed_from_u64(seed);
        let global_optimum = standard_normals(&mut rng, config.dim);
        let mut bias_direction = standard_normals(&mut rng, config.dim);
        let bias_norm = norm(&bias_direction);
        bias_direction.iter_mut().for_each(|b| *b /= bias_norm);
        let init_dir = standard_normals(&mut rng, config.dim);
        let init_norm = norm(&init_dir);
        let initial = global_optimum
            .iter()
            .zip(&init_dir)
            .map(|(g, d)| g + config.init_distance * d / init_norm)
            .collect();
        let num_examples: Vec<u32> = population.iter().map(|d| d.num_examples as u32).collect();
        let max_examples = num_examples.iter().copied().max().unwrap_or(1).max(1) as f32;
        ProceduralSurrogate {
            config,
            global_optimum,
            bias_direction,
            initial: ParamVec::from_vec(initial),
            num_examples,
            max_examples,
            seed,
            eval_optima: EvalOptima::default(),
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
        let noise = standard_normals(&mut rng, self.config.dim);
        (0..self.config.dim)
            .map(|j| {
                self.global_optimum[j]
                    + self.config.heterogeneity * noise[j]
                    + self.config.volume_bias * volume_percentile * self.bias_direction[j]
            })
            .collect()
    }

    /// The population optimum: the `f32` mean of every client's optimum,
    /// summed in id order.  Evaluating at this point gives the
    /// (approximate) lowest achievable population loss, useful for setting
    /// relative loss targets.  Each optimum is derived and dropped in turn,
    /// so this holds O(dim) floats; but an `evaluate` over every client
    /// keeps that set's optima, `n · dim` floats, what storing every
    /// client's optimum would cost.
    pub fn population_optimum(&self) -> ParamVec {
        let mut mean = vec![0.0f32; self.config.dim];
        for id in 0..self.num_clients() {
            for (m, o) in mean.iter_mut().zip(self.client_optimum(id)) {
                *m += o;
            }
        }
        let n = self.num_clients().max(1) as f32;
        mean.iter_mut().for_each(|m| *m /= n);
        ParamVec::from_vec(mean)
    }

    /// Number of evaluation sets whose optima are kept.
    #[cfg(test)]
    fn cached_sets(&self) -> usize {
        self.eval_optima.lock().len()
    }
}

impl ClientTrainer for ProceduralSurrogate {
    fn parameter_count(&self) -> usize {
        self.config.dim
    }

    fn initial_parameters(&self) -> ParamVec {
        self.initial.clone()
    }

    /// Local SGD on the quadratic toward the client's optimum.
    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        check_arguments(self.num_clients(), self.config.dim, client_id, global);
        let config = &self.config;
        let optimum = self.client_optimum(client_id);
        let examples = self.num_examples[client_id] as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9e37_79b9));
        let steps = (examples.div_ceil(config.batch_size)).clamp(1, config.max_local_steps);
        // Gradient noise shrinks with the batch size actually used.
        let noise_scale =
            config.gradient_noise / (config.batch_size.min(examples).max(1) as f32).sqrt();

        let mut w: Vec<f32> = global.as_slice().to_vec();
        let mut normals = Normals::new(config.dim);
        for _ in 0..steps {
            let noise = normals.draw(&mut rng);
            for ((w, o), n) in w.iter_mut().zip(&optimum).zip(noise) {
                let grad = (*w - o) + noise_scale * n;
                *w -= config.local_learning_rate * grad;
            }
        }
        let train_loss = loss_at(&w, &optimum) as f32;
        LocalTrainResult {
            delta: ParamVec::from_vec(w).sub(global),
            num_examples: examples,
            train_loss,
        }
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        assert!(!client_ids.is_empty(), "evaluate needs at least one client");
        for &id in client_ids {
            check_arguments(self.num_clients(), self.config.dim, id, params);
        }
        let mut sets = self.eval_optima.lock();
        if !sets.contains_key(client_ids) {
            let optima = client_ids
                .iter()
                .map(|&id| self.client_optimum(id))
                .collect();
            sets.insert(client_ids.to_vec(), optima);
        }
        sets[client_ids]
            .iter()
            .map(|optimum| loss_at(params.as_slice(), optimum))
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

    /// One Box–Muller draw: what every normal of the surrogate was before
    /// it drew them in batches, and the oracle the batches are held to.
    fn standard_normal(rng: &mut StdRng) -> f32 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        papaya_data::stats::standard_normal_pair(u1, u2).0 as f32
    }

    #[test]
    fn batched_normals_are_the_scalar_draws_in_order() {
        let (mut batched, mut scalar) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        let mut normals = Normals::new(128);
        for _ in 0..50 {
            for &n in normals.draw(&mut batched) {
                assert_eq!(n.to_bits(), standard_normal(&mut scalar).to_bits());
            }
        }
        for &n in &standard_normals(&mut batched, 5) {
            assert_eq!(n.to_bits(), standard_normal(&mut scalar).to_bits());
        }
        assert_eq!(batched.gen::<u64>(), scalar.gen::<u64>());
    }

    impl ProceduralSurrogate {
        /// Loss of `params` for a single client.
        fn client_loss(&self, params: &ParamVec, client_id: usize) -> f64 {
            check_arguments(self.num_clients(), self.config.dim, client_id, params);
            loss_at(params.as_slice(), &self.client_optimum(client_id))
        }
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

    fn procedural(n: usize) -> ProceduralSurrogate {
        let pop = Population::generate(&PopulationConfig::default().with_size(n), 5);
        ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 5)
    }

    /// `Σ client_loss / n` over `ids`: what `evaluate` computed before it
    /// kept any optima.
    fn mean_client_loss(obj: &ProceduralSurrogate, params: &ParamVec, ids: &[usize]) -> f64 {
        ids.iter()
            .map(|&id| obj.client_loss(params, id))
            .sum::<f64>()
            / ids.len() as f64
    }

    #[test]
    fn cached_evaluate_is_the_mean_client_loss_bit_for_bit() {
        let obj = procedural(300);
        let initial = obj.initial_parameters();
        let trained = initial.add(&obj.train(11, &initial, 3).delta);
        let params = [initial, trained, ParamVec::zeros(obj.config.dim)];
        let evens: Vec<usize> = (0..300).step_by(2).collect();
        let tail: Vec<usize> = (250..300).rev().collect();
        let repeated = vec![17, 4, 17, 17, 299, 4];
        for p in &params {
            for ids in [&evens, &tail, &evens, &repeated, &tail] {
                let want = mean_client_loss(&obj, p, ids);
                assert_eq!(obj.evaluate(p, ids).to_bits(), want.to_bits());
            }
        }
        // A clone carries the kept optima and evaluates the same bits, on
        // the lists it inherited and on a new one.
        let clone = obj.clone();
        let fresh: Vec<usize> = (0..40).collect();
        for p in &params {
            for ids in [&evens, &repeated, &fresh] {
                let want = mean_client_loss(&obj, p, ids);
                assert_eq!(clone.evaluate(p, ids).to_bits(), want.to_bits());
            }
        }
        assert_eq!((obj.cached_sets(), clone.cached_sets()), (3, 4));
    }

    /// `ProceduralSurrogate::train` as it was before it reused its optimum:
    /// the loss of the trained parameters goes through `client_loss`, which
    /// derives the optimum again.
    fn train_deriving_twice(
        obj: &ProceduralSurrogate,
        client_id: usize,
        global: &ParamVec,
        seed: u64,
    ) -> LocalTrainResult {
        let mut rng = StdRng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9e37_79b9));
        let optimum = obj.client_optimum(client_id);
        let examples = obj.num_examples[client_id] as usize;
        let steps = (examples.div_ceil(obj.config.batch_size)).clamp(1, obj.config.max_local_steps);
        let noise_scale =
            obj.config.gradient_noise / (obj.config.batch_size.min(examples).max(1) as f32).sqrt();
        let mut w: Vec<f32> = global.as_slice().to_vec();
        for _ in 0..steps {
            for j in 0..obj.config.dim {
                let grad = (w[j] - optimum[j]) + noise_scale * standard_normal(&mut rng);
                w[j] -= obj.config.local_learning_rate * grad;
            }
        }
        let trained = ParamVec::from_vec(w);
        LocalTrainResult {
            train_loss: obj.client_loss(&trained, client_id) as f32,
            delta: trained.sub(global),
            num_examples: examples,
        }
    }

    #[test]
    fn train_loss_is_the_client_loss_of_the_trained_parameters() {
        let obj = procedural(300);
        let initial = obj.initial_parameters();
        let moved = initial.add(&obj.train(5, &initial, 9).delta);
        for global in [&initial, &moved] {
            for (client, seed) in [(0, 1), (7, 42), (123, 7), (299, 1234)] {
                let got = obj.train(client, global, seed);
                let want = train_deriving_twice(&obj, client, global, seed);
                assert_eq!(got.train_loss.to_bits(), want.train_loss.to_bits());
                assert_eq!(got, want);
            }
        }
        assert_eq!(obj.cached_sets(), 0, "train keeps nothing");
    }

    #[test]
    fn evaluation_sets_do_not_evict_each_other() {
        // Like `fleet-scale`: tasks sharing one trainer, each with its own
        // evaluation set, evaluated in turn.
        let obj = procedural(100);
        let params = obj.initial_parameters();
        let sets: Vec<Vec<usize>> = (0..4)
            .map(|task| (task * 10..task * 10 + 20).collect())
            .collect();
        for round in 1..=3 {
            for ids in &sets {
                obj.evaluate(&params, ids);
            }
            assert_eq!(obj.cached_sets(), 4, "round {round}");
        }
        // A permutation is a different list.
        let reversed: Vec<usize> = sets[0].iter().rev().copied().collect();
        obj.evaluate(&params, &reversed);
        assert_eq!(obj.cached_sets(), 5);
        // Debug names the count, not the floats.
        assert!(format!("{obj:?}").contains("EvalOptima { sets: 5 }"));
    }

    #[test]
    fn rejected_evaluations_keep_nothing() {
        let obj = procedural(10);
        let params = obj.initial_parameters();
        let short = ParamVec::zeros(obj.config.dim - 1);
        for (params, ids) in [(&params, vec![0, 10]), (&short, vec![0, 1])] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                obj.evaluate(params, &ids)
            }));
            assert!(outcome.is_err());
        }
        assert_eq!(obj.cached_sets(), 0);
        // The trainer still works after the panics.
        assert!(obj.evaluate(&params, &[0, 1]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn procedural_evaluate_rejects_a_short_parameter_vector() {
        let obj = procedural(10);
        obj.evaluate(&ParamVec::zeros(obj.config.dim - 1), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn procedural_evaluate_rejects_an_unknown_client() {
        let obj = procedural(10);
        obj.evaluate(&obj.initial_parameters(), &[0, 10]);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn procedural_client_loss_rejects_a_long_parameter_vector() {
        let obj = procedural(10);
        obj.client_loss(&ParamVec::zeros(obj.config.dim + 1), 0);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn procedural_client_loss_rejects_an_unknown_client() {
        let obj = procedural(10);
        obj.client_loss(&obj.initial_parameters(), 10);
    }

    #[test]
    fn procedural_surrogate_per_client_state_is_bytes_not_dim() {
        // The scale claim: per-client cost is one packed u32, independent of
        // the model dimension.
        let pop = Population::generate(&PopulationConfig::default().with_size(1000), 5);
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 5);
        assert_eq!(obj.num_clients(), 1000);
        assert_eq!(
            std::mem::size_of_val(&obj.num_examples[..]) / obj.num_clients(),
            4
        );
    }

    #[test]
    fn population_optimum_is_the_mean_of_the_derived_optima() {
        let obj = procedural(300);
        let mut sum = vec![0.0f32; obj.config.dim];
        for id in 0..obj.num_clients() {
            for (s, o) in sum.iter_mut().zip(obj.client_optimum(id)) {
                *s += o;
            }
        }
        let optimum = obj.population_optimum();
        for (j, (got, s)) in optimum.as_slice().iter().zip(&sum).enumerate() {
            let want = s / obj.num_clients() as f32;
            assert_eq!(got.to_bits(), want.to_bits(), "coordinate {j}");
        }
        let all: Vec<usize> = (0..obj.num_clients()).collect();
        let initial = obj.initial_parameters();
        assert!(obj.evaluate(&optimum, &all) < obj.evaluate(&initial, &all));
    }

    #[test]
    fn initial_loss_is_high_training_reduces_it() {
        let obj = procedural(200);
        let all: Vec<usize> = (0..obj.num_clients()).collect();
        let mut model = ServerModel::new(obj.initial_parameters());
        let initial_loss = obj.evaluate(model.params(), &all);

        // Run 30 FedAvg rounds of 20 clients each.
        let mut opt = FedAvg;
        let mut agg = FedBuffAggregator::new(20, StalenessWeighting::Constant);
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
        let obj = procedural(50);
        let global = obj.initial_parameters();
        let a = obj.train(3, &global, 42);
        let b = obj.train(3, &global, 42);
        assert_eq!(a, b);
        let c = obj.train(3, &global, 43);
        assert_ne!(a.delta, c.delta);
    }

    #[test]
    fn delta_moves_towards_client_optimum() {
        let obj = procedural(50);
        let global = obj.initial_parameters();
        let before = obj.client_loss(&global, 7);
        let result = obj.train(7, &global, 1);
        let after = obj.client_loss(&global.add(&result.delta), 7);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn heavy_clients_have_systematically_different_optima() {
        let pop = Population::generate(&PopulationConfig::default().with_size(2000), 9);
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 9);
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
            let mut acc = vec![0.0f32; obj.config.dim];
            for &id in ids {
                for (a, o) in acc.iter_mut().zip(obj.client_optimum(id)) {
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
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 2);
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
        let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 1);
        let result = obj.train(0, &obj.initial_parameters(), 0);
        assert_eq!(result.num_examples, 5000);
        // The delta norm stays bounded because steps are capped.
        assert!(result.delta.norm() < 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        let obj = procedural(5);
        let _ = obj.train(99, &obj.initial_parameters(), 0);
    }
}
