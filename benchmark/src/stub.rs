//! `StubTrainer`, a client trainer cheap enough that the simulator itself
//! does the work, and the output checks every operation goes through.

use papaya_core::client::{ClientTrainer, LocalTrainResult};
use papaya_nn::params::ParamVec;
use papaya_sim::scenario::{Report, StopReason};

/// A two-camp quadratic: client `i` holds `½‖w − s_i·c‖² / dim`, where `c` is
/// one fixed direction with `|c_j| = heterogeneity` and `s_i = ±1` is hashed
/// from `(seed, i)`.  Local training is one gradient step on it: one hash and
/// one pass over the model, no state per client — a million idle clients
/// cost this trainer nothing.
///
/// The camps pull against each other, so the population loss has the
/// irreducible floor `½ heterogeneity²` a real federation has.  That floor,
/// not optimizer noise, is what a run's final loss settles on — which is why
/// `sim_loss_ratio` repeats to a percent across seeds.
#[derive(Clone, Debug)]
pub struct StubTrainer {
    /// The camp direction `c`.
    direction: Vec<f32>,
    learning_rate: f32,
    init_distance: f32,
    seed: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distance between the two camps' optima, per coordinate, is twice this.
const HETEROGENEITY: f32 = 1.0;

/// SplitMix64's output function: a cheap, well-mixed hash of a counter.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `+x` or `−x` by bit `j` of `bits` (bits repeat past 64 coordinates).
fn signed(x: f32, bits: u64, j: usize) -> f32 {
    if (bits >> (j % 64)) & 1 == 0 {
        x
    } else {
        -x
    }
}

impl StubTrainer {
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "a model needs at least one parameter");
        let bits = mix(seed ^ GOLDEN);
        StubTrainer {
            direction: (0..dim).map(|j| signed(HETEROGENEITY, bits, j)).collect(),
            learning_rate: 0.1,
            init_distance: 8.0,
            seed,
        }
    }

    /// Step size of the one local gradient step.
    pub fn with_learning_rate(mut self, learning_rate: f32) -> Self {
        self.learning_rate = learning_rate;
        self
    }

    /// Per-coordinate distance of the initial model from the population
    /// optimum: sets how long a run takes to reach its loss target.
    pub fn with_init_distance(mut self, init_distance: f32) -> Self {
        self.init_distance = init_distance;
        self
    }

    fn client_stream(&self, client_id: usize) -> u64 {
        mix(self.seed ^ (client_id as u64).wrapping_add(1).wrapping_mul(GOLDEN))
    }

    /// `s_i`: which camp the client is in.
    fn camp(stream: u64) -> f32 {
        signed(1.0, stream, 63)
    }
}

impl ClientTrainer for StubTrainer {
    fn parameter_count(&self) -> usize {
        self.direction.len()
    }

    fn initial_parameters(&self) -> ParamVec {
        let bits = mix(self.seed);
        ParamVec::from_vec(
            (0..self.direction.len())
                .map(|j| signed(self.init_distance, bits, j))
                .collect(),
        )
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        let stream = self.client_stream(client_id);
        let camp = Self::camp(stream);
        // The participation seed jitters the step by ±25 %, so the result
        // depends on all of (client_id, global, seed) as a real trainer's does.
        let jitter = (mix(stream ^ seed) >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
        let step = self.learning_rate * (0.75 + 0.5 * jitter);
        let mut loss = 0.0f32;
        let delta: Vec<f32> = global
            .as_slice()
            .iter()
            .zip(&self.direction)
            .map(|(&w, &c)| {
                let gradient = w - camp * c;
                loss += gradient * gradient;
                -step * gradient
            })
            .collect();
        LocalTrainResult {
            delta: ParamVec::from_vec(delta),
            num_examples: 8 + (stream & 63) as usize,
            train_loss: 0.5 * loss / self.direction.len() as f32,
        }
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        // ‖w − s·c‖² = ‖w‖² − 2 s (w·c) + ‖c‖²: one pass over the model, then
        // one hash per client.
        let (mut ww, mut wc, mut cc) = (0.0f64, 0.0f64, 0.0f64);
        for (&w, &c) in params.as_slice().iter().zip(&self.direction) {
            let (w, c) = (f64::from(w), f64::from(c));
            ww += w * w;
            wc += w * c;
            cc += c * c;
        }
        let total: f64 = client_ids
            .iter()
            .map(|&id| ww - 2.0 * f64::from(Self::camp(self.client_stream(id))) * wc + cc)
            .sum();
        0.5 * total / (self.direction.len() * client_ids.len().max(1)) as f64
    }
}

/// What a workload's run must look like to count as a correct operation.
#[derive(Clone, Debug)]
pub struct Expectation {
    /// Every task must end at or below this share of its initial loss.
    pub target_ratio: f64,
    /// The run must record an aggregator failure, a recovery and a
    /// coordinator restore (`fleet-failover`).
    pub failover: bool,
}

/// Virtual hours until every task's loss is at or below `target_ratio ×` its
/// initial loss: per task the first loss-curve sample there, with the
/// crossing interpolated linearly from the sample before it (evaluations are
/// minutes apart, and a metric that moved a whole interval at a time would
/// hide a small change and exaggerate a large one); over tasks the slowest.
/// `None` if some task never got there.
pub fn hours_to_target(report: &Report, target_ratio: f64) -> Option<f64> {
    let mut slowest = 0.0f64;
    for task in &report.tasks {
        let target = target_ratio * task.initial_loss;
        let curve = task.metrics.loss_curve.as_slice();
        let at = curve.iter().position(|&(_, loss)| loss <= target)?;
        let (hours, loss) = curve[at];
        let crossing = match at.checked_sub(1).map(|before| curve[before]) {
            Some((hours_before, loss_before)) if loss_before > loss => {
                hours_before
                    + (hours - hours_before) * (loss_before - target) / (loss_before - loss)
            }
            _ => hours,
        };
        slowest = slowest.max(crossing);
    }
    Some(slowest)
}

/// Mean over tasks of final / initial loss.
pub fn loss_ratio(report: &Report) -> f64 {
    let sum: f64 = report
        .tasks
        .iter()
        .map(|task| task.final_loss / task.initial_loss)
        .sum();
    sum / report.tasks.len() as f64
}

/// Checks one run's outputs; `reference` is the fingerprint every run of the
/// same inputs must repeat.  Returns every reason the operation failed.
pub fn check_report(
    report: &Report,
    fingerprint: &str,
    expect: &Expectation,
    reference: Option<&str>,
) -> Result<(), String> {
    let mut reasons = Vec::new();
    // Every workload is sized to stop on its update budget.
    if report.stop_reason != StopReason::MaxClientUpdates {
        reasons.push(format!(
            "stopped because {} (expected {})",
            report.stop_reason,
            StopReason::MaxClientUpdates
        ));
    }
    for task in &report.tasks {
        let limit = expect.target_ratio * task.initial_loss;
        // Written so that a NaN loss fails the comparison too.
        if !(task.final_loss.is_finite() && task.final_loss <= limit) {
            reasons.push(format!(
                "task {:?} ended at loss {} (initial {}, limit {})",
                task.name, task.final_loss, task.initial_loss, limit
            ));
        }
    }
    if hours_to_target(report, expect.target_ratio).is_none() {
        reasons.push("the loss target never appears on some task's loss curve".to_string());
    }
    if let Some(reference) = reference {
        if fingerprint != reference {
            reasons.push(format!(
                "fingerprint {fingerprint} differs from the first run's {reference}"
            ));
        }
    }
    if expect.failover {
        let cp = &report.fleet.control_plane;
        if cp.aggregator_failures == 0 {
            reasons.push("no aggregator failure recorded".to_string());
        }
        if cp.aggregator_recoveries == 0 {
            reasons.push("no aggregator recovery recorded".to_string());
        }
        if cp.coordinator_restores == 0 {
            reasons.push("no coordinator restore recorded".to_string());
        }
    }
    if reasons.is_empty() {
        Ok(())
    } else {
        Err(reasons.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_core::aggregator;
    use papaya_core::client::ClientUpdate;
    use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
    use papaya_core::TaskConfig;
    use papaya_data::population::{Population, PopulationConfig};
    use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
    use std::sync::Arc;

    #[test]
    fn stub_is_deterministic_in_client_global_and_seed() {
        let trainer = StubTrainer::new(16, 3);
        let global = trainer.initial_parameters();
        let a = trainer.train(5, &global, 11);
        assert_eq!(a, trainer.train(5, &global, 11));
        assert_ne!(a.delta, trainer.train(6, &global, 11).delta);
        assert_ne!(a.delta, trainer.train(5, &global, 12).delta);
        let mut moved = global.clone();
        moved.scale(0.5);
        assert_ne!(a.delta, trainer.train(5, &moved, 11).delta);
        assert_ne!(
            global,
            StubTrainer::new(16, 4).initial_parameters(),
            "the seed picks the starting corner"
        );
        assert_eq!(a.delta.len(), 16);
        assert!(a.num_examples >= 8);
    }

    #[test]
    fn the_two_camps_leave_a_floor_of_half_the_heterogeneity_squared() {
        let trainer = StubTrainer::new(64, 9);
        let ids: Vec<usize> = (0..500).collect();
        // At the population optimum (the origin) every client is exactly one
        // heterogeneity away per coordinate.
        assert_eq!(trainer.evaluate(&ParamVec::zeros(64), &ids), 0.5);
        // Both camps are populated, about evenly.
        let ahead = ids
            .iter()
            .filter(|&&id| StubTrainer::camp(trainer.client_stream(id)) > 0.0)
            .count();
        assert!((200..300).contains(&ahead), "{ahead} of 500 in one camp");
        // The closed form agrees with the definition.
        let w = trainer.initial_parameters();
        let direct: f64 = ids
            .iter()
            .map(|&id| {
                let camp = StubTrainer::camp(trainer.client_stream(id));
                let sum: f64 = w
                    .as_slice()
                    .iter()
                    .zip(&trainer.direction)
                    .map(|(&w, &c)| f64::from(w - camp * c).powi(2))
                    .sum();
                0.5 * sum / 64.0
            })
            .sum::<f64>()
            / 500.0;
        assert!((trainer.evaluate(&w, &ids) - direct).abs() < 1e-9 * direct);
    }

    #[test]
    fn stub_loss_strictly_decreases_under_fedbuff() {
        let trainer = StubTrainer::new(32, 1);
        let config = TaskConfig::async_task("t", 40, 10);
        let mut aggregator = aggregator::for_task(&config);
        let mut model = trainer.initial_parameters();
        let eval_ids: Vec<usize> = (1000..1100).collect();
        let mut last = trainer.evaluate(&model, &eval_ids);
        let mut client = 0usize;
        for version in 0..20u64 {
            while !aggregator.is_ready(0.0) {
                let result = trainer.train(client, &model, client as u64);
                aggregator.accumulate(
                    ClientUpdate::from_result(client, version, result),
                    version,
                    0.0,
                );
                client += 1;
            }
            let delta = aggregator.take(0.0).expect("ready");
            model.add_scaled(&delta, 1.0);
            let loss = trainer.evaluate(&model, &eval_ids);
            assert!(loss < last, "step {version}: {loss} !< {last}");
            last = loss;
        }
    }

    fn small_run(
        trainer: Arc<dyn ClientTrainer>,
        population: Population,
        config: TaskConfig,
        updates: u64,
    ) -> Report {
        Scenario::builder()
            .population(population)
            .task_with_trainer(config, trainer)
            .limits(
                RunLimits::default()
                    .with_max_client_updates(updates)
                    .with_trace_budget(4096),
            )
            .eval(
                EvalPolicy::default()
                    .with_interval_s(60.0)
                    .with_sample_size(100),
            )
            .seed(42)
            .build()
            .run()
    }

    fn population(size: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(size), 42)
    }

    #[test]
    fn a_converging_run_passes_and_each_check_can_fail() {
        let expect = Expectation {
            target_ratio: 0.5,
            failover: false,
        };
        let report = small_run(
            Arc::new(StubTrainer::new(32, 42)),
            population(2_000),
            TaskConfig::async_task("ok", 100, 10),
            5_000,
        );
        let fingerprint = report.fingerprint();
        assert_eq!(
            check_report(&report, &fingerprint, &expect, Some(&fingerprint)),
            Ok(())
        );
        let to_target = hours_to_target(&report, 0.5).expect("reached");
        assert!(to_target > 0.0 && to_target <= report.virtual_hours);
        assert!(loss_ratio(&report) < 0.5);

        let err = check_report(&report, &fingerprint, &expect, Some("other")).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let mut out_of_time = report.clone();
        out_of_time.stop_reason = StopReason::MaxVirtualTime;
        let err = check_report(&out_of_time, &fingerprint, &expect, None).unwrap_err();
        assert!(err.contains("stopped because"), "{err}");
        let needs_failover = Expectation {
            failover: true,
            ..expect.clone()
        };
        let err = check_report(&report, &fingerprint, &needs_failover, None).unwrap_err();
        assert!(err.contains("no aggregator failure"), "{err}");
        let mut poisoned = report.clone();
        poisoned.tasks[0].final_loss = f64::NAN;
        let err = check_report(&poisoned, &fingerprint, &expect, None).unwrap_err();
        assert!(err.contains("ended at loss NaN"), "{err}");
    }

    /// The full-size `fedbuff-1m` shape of `perf_suite` (concurrency 4096,
    /// goal 256, 40 k updates over the procedural surrogate) drives its loss
    /// *up*.  A benchmark that only timed it would report a fast run; this
    /// one reports a failed operation.  (100 k devices instead of 1 M keeps
    /// the test quick; the divergence is a property of c, K and the trainer.)
    #[test]
    fn the_diverging_fedbuff_1m_shape_is_a_failed_operation_not_a_fast_run() {
        let population = population(100_000);
        let config = SurrogateConfig {
            dim: 128,
            heterogeneity: 0.5,
            volume_bias: 2.0,
            local_learning_rate: 0.05,
            batch_size: 16,
            max_local_steps: 32,
            gradient_noise: 1.0,
            init_distance: 8.0,
        };
        let trainer = Arc::new(ProceduralSurrogate::new(&population, config, 42));
        let report = small_run(
            trainer,
            population,
            TaskConfig::async_task("fedbuff-1m", 4096, 256),
            40_000,
        );
        let expect = Expectation {
            target_ratio: 0.5,
            failover: false,
        };
        let err = check_report(&report, &report.fingerprint(), &expect, None).unwrap_err();
        assert!(err.contains("ended at loss"), "{err}");
        assert!(report.single().final_loss > report.single().initial_loss);
    }
}
